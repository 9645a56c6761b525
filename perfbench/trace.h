// In-memory span recorder and allocation counter for the catbench
// driver. Spans wrap the benchmark's own calls into catenet (it cannot
// see inside run_for), so each layer's time is the self time of the spans
// around its entry points; counts come from the library's public
// counters instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
    CoreBuild,      ///< gateways, trunks, hosts / leaf LANs
    RoutingStatic,  ///< Internetwork::use_static_routes
    CoreInject,     ///< one TopologyStore::leaf_inject_train call
    SimRun,         ///< one Internetwork::run_for call
    TcpSend,        ///< one TcpSocket::send call
    AppOnData,      ///< the receive handler, byte check included
    IpFibLookup,    ///< one pass of RoutingTable::lookup over the probe set
    kCount,
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);

/// Metric prefix of each span, e.g. "core.inject" for CoreInject.
const char* span_label(SpanName name) noexcept;

struct SpanRecord {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
    SpanName name = SpanName::kCount;
};

inline std::int64_t wall_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Process CPU time, all threads.
inline std::int64_t cpu_ns() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Main-thread span log. Disabled, a Span costs one branch.
class Tracer {
public:
    bool enabled = false;

    std::int32_t begin(SpanName name) {
        const auto index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(SpanRecord{wall_ns(), 0, current_, name});
        current_ = index;
        return index;
    }
    void end(std::int32_t index) {
        SpanRecord& s = spans_[static_cast<std::size_t>(index)];
        s.end_ns = wall_ns();
        current_ = s.parent;
    }

    const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
    std::size_t size() const noexcept { return spans_.size(); }

private:
    std::vector<SpanRecord> spans_;
    std::int32_t current_ = -1;
};

Tracer& tracer() noexcept;

class Span {
public:
    explicit Span(SpanName name)
        : index_(tracer().enabled ? tracer().begin(name) : -1) {}
    ~Span() {
        if (index_ >= 0) tracer().end(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::int32_t index_;
};

/// Heap allocations made through operator new while counting is on
/// (alloc_count.cc replaces the global operator new).
std::atomic<bool>& alloc_counting() noexcept;
std::uint64_t allocations() noexcept;

/// Bytes the allocator holds for the program (mallinfo2), 0 where the
/// libc has no such call.
std::size_t heap_bytes() noexcept;

}  // namespace perfbench
