// Counting replacement of the global operator new/delete. Every heap
// allocation in the process goes through here, the library's included;
// the count advances only while alloc_counting() is set, which the driver
// does inside timed phases.
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "trace.h"

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() noexcept {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
}

void* allocate(std::size_t size) {
    note_allocation();
    void* p = std::malloc(size != 0 ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
    note_allocation();
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

std::atomic<bool>& alloc_counting() noexcept { return g_counting; }

std::uint64_t allocations() noexcept {
    return g_allocations.load(std::memory_order_relaxed);
}

std::size_t heap_bytes() noexcept {
#if defined(__GLIBC__)
    // In-use arena bytes plus mmapped chunks: what the program keeps.
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#else
    return 0;
#endif
}

}  // namespace perfbench

// libstdc++'s array and nothrow forms forward to these.
void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return perfbench::allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
