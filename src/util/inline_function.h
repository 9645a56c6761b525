// A small-buffer-optimized, move-only callable for the event engine's hot
// path. std::function heap-allocates any capture bigger than two pointers
// (libstdc++) and drags in copy semantics the engine never needs; this type
// stores captures up to kInlineSize bytes inline — sized so every scheduling
// lambda in the library (link transmitters, TCP timers, IP deferred
// delivery) fits — and falls back to the heap only beyond that.
//
// A callable may also declare `void prefetch() const noexcept`, which the
// engine calls on the next event while the current one runs (DESIGN.md §5).
// It may only issue cache prefetches for addresses its capture holds: it
// reads its own capture, dereferences no captured pointer and changes
// nothing, so calling it or not never changes what a run computes.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace catenet::util {

class InlineCallback {
public:
    /// Inline capture capacity. Large enough for a `this` pointer plus a
    /// link::Packet moved in by value plus a scalar — a LAN delivery (this +
    /// port index + Packet = 48 bytes) — which lets links carry in-flight
    /// packets inside the event slot instead of through a side free list.
    /// The largest capture in the library is IpStack's loopback delivery
    /// (this + header + buffer = 56 bytes).
    static constexpr std::size_t kInlineSize = 64;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                          std::is_invocable_r_v<void, D&>>>
    InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
        emplace(std::forward<F>(f));
    }

    InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

    InlineCallback& operator=(InlineCallback&& other) noexcept {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback&) = delete;
    InlineCallback& operator=(const InlineCallback&) = delete;

    ~InlineCallback() { reset(); }

    void operator()() { ops_->invoke(storage_); }

    /// Calls the stored callable's `prefetch()`, if it declares one; does
    /// nothing when it does not or when the callback is empty. Never
    /// invokes the callable.
    void prefetch() const noexcept {
        if (ops_ != nullptr && ops_->prefetch != nullptr) ops_->prefetch(storage_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// True when the callable lives in the inline buffer (no heap node).
    bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_stored; }

    /// Destroys any stored callable and constructs `f` directly in the
    /// buffer. The scheduling hot path uses this to build the callable
    /// in the event slot itself rather than move-assigning a temporary,
    /// which would cost a relocation pair (move-construct into the
    /// parameter, then again into the slot) per event for non-trivially-
    /// copyable captures like an in-flight Packet.
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                          std::is_invocable_r_v<void, D&>>>
    void emplace(F&& f) {
        reset();
        if constexpr (fits_inline<D>()) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
            ops_ = &kHeapOps<D>;
        }
    }

    /// Destroys the stored callable, leaving the callback empty.
    void reset() noexcept {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr) ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    /// Compile-time predicate: would a callable of type D be stored inline?
    template <typename D>
    static constexpr bool fits_inline() noexcept {
        return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

private:
    template <typename D>
    static constexpr bool kHasPrefetch = requires(const D& d) {
        { d.prefetch() } noexcept -> std::same_as<void>;
    };

    // relocate/destroy are null for types where a raw memcpy / no-op
    // suffices (trivially copyable captures, and the heap case's stored
    // pointer): the engine's steady state then moves callbacks with one
    // constant-size memcpy and zero indirect calls. prefetch is null
    // unless the callable declares one.
    struct Ops {
        void (*invoke)(void* storage);
        void (*relocate)(void* dst, void* src) noexcept;  // null => memcpy
        void (*destroy)(void* storage) noexcept;          // null => no-op
        void (*prefetch)(const void* storage) noexcept;   // null => none
        bool inline_stored;
    };

    // `Heap` says whether the storage holds the callable or an owning
    // pointer to it.
    template <typename D, bool Heap>
    static constexpr auto prefetch_op() noexcept -> void (*)(const void*) noexcept {
        if constexpr (!kHasPrefetch<D>) {
            return nullptr;
        } else if constexpr (Heap) {
            return [](const void* s) noexcept {
                (*std::launder(reinterpret_cast<D* const*>(s)))->prefetch();
            };
        } else {
            return [](const void* s) noexcept {
                std::launder(reinterpret_cast<const D*>(s))->prefetch();
            };
        }
    }

    template <typename D>
    static constexpr Ops kInlineOps{
        [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
        std::is_trivially_copyable_v<D>
            ? nullptr
            : +[](void* dst, void* src) noexcept {
                  D* from = std::launder(reinterpret_cast<D*>(src));
                  ::new (dst) D(std::move(*from));
                  from->~D();
              },
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
        prefetch_op<D, /*Heap=*/false>(),
        /*inline_stored=*/true,
    };

    template <typename D>
    static constexpr Ops kHeapOps{
        [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
        /*relocate=*/nullptr,  // relocating the owning pointer is a memcpy
        [](void* s) noexcept { delete *std::launder(reinterpret_cast<D**>(s)); },
        prefetch_op<D, /*Heap=*/true>(),
        /*inline_stored=*/false,
    };

    void move_from(InlineCallback& other) noexcept {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            if (ops_->relocate != nullptr) {
                ops_->relocate(storage_, other.storage_);
            } else {
                std::memcpy(storage_, other.storage_, kInlineSize);
            }
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
};

}  // namespace catenet::util
