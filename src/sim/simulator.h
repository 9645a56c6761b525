// The discrete-event engine. Single-threaded and deterministic: events at
// equal times fire in scheduling order. Everything in the library — link
// transmissions, protocol timers, application workloads — runs as events
// on one Simulator instance per scenario.
//
// Internals are built for the hot path (see DESIGN.md §"Event-engine
// internals"): events live in a contiguous free-listed slab of slots, an
// EventId packs (slot index, generation) so cancellation is an O(1)
// generation bump with no auxiliary containers, and the 4-ary heap holds
// only (time, seq, slot) triples that are invalidated lazily at pop.
// Callbacks are InlineCallbacks: captures up to 64 bytes never touch the
// heap, so steady-state schedule/cancel is allocation-free.
//
// Dispatch is a two-stage software pipeline: while one event fires, the
// engine has already pulled the slot of the event after next toward the
// cache and has asked the next event's callback to prefetch what it will
// touch (InlineCallback::prefetch). Prefetches change no state, so the
// pipeline never changes what fires or in which order.
//
// The event store is two-tiered: imminent events (firing inside the
// current ~67ms window) live in the 4-ary heap; distant ones (protocol
// timers parked hundreds of milliseconds out, mostly re-armed or cancelled
// before they fire) live in lazy calendar buckets where scheduling is an
// O(1) append with no sift and no ordering work. Buckets migrate into the
// heap only when simulated time approaches, so a timer that is re-armed a
// thousand times costs a thousand appends and zero heap operations.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"
#include "util/buffer_pool.h"
#include "util/inline_function.h"

namespace catenet::sim {

/// Handle for a scheduled event; lets the owner cancel it. Packs
/// (generation << 32) | slot index; generations start at 1, so no valid
/// handle is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// One engine's counters (MetricsReport's `engines` group). They describe
/// the engine, not the simulated network: a sharded run's heaps differ from
/// its sequential twin's, so they are kept out of the telemetry
/// CounterBlock that digests hash.
struct EngineStats {
    std::uint64_t events = 0;         ///< events fired, cross-shard arrivals included
    std::uint64_t stale_skimmed = 0;  ///< cancelled or re-armed heap entries popped unfired
    std::uint64_t heap_max = 0;       ///< near heap's high-water mark, stale entries included
    std::uint64_t far_max = 0;        ///< far store's high-water mark, stale entries included
};

class Simulator {
public:
    using Callback = util::InlineCallback;

    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    Time now() const noexcept { return now_; }

    /// Schedules `fn` to run at absolute time `when` (must be >= now()).
    /// Defined inline: this and cancel() are the two hottest functions in
    /// the library, and the compiler folds the callback's ops dispatch to
    /// straight-line code only when it sees construction and storage
    /// together. Templated on the callable so the capture is constructed
    /// directly in the event slot — handing over a prebuilt Callback would
    /// relocate it twice (into the parameter, then into the slot), and for
    /// lambdas that carry a Packet each relocation is a real move.
    template <typename F>
    EventId schedule_at(Time when, F&& fn) {
        if (when < now_) throw_past("schedule_at", when);
        const std::uint32_t slot = acquire_slot();
        EventSlot& s = slots_[slot];
        s.seq = next_seq_++;
        s.armed = true;
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
            s.fn = std::forward<F>(fn);
        } else {
            s.fn.emplace(std::forward<F>(fn));
        }
        ++live_;
        push_event(when, s.seq, slot);
        return pack(s.generation, slot);
    }

    /// Schedules `fn` to run `delay` after the current time.
    template <typename F>
    EventId schedule_after(Time delay, F&& fn) {
        return schedule_at(now_ + delay, std::forward<F>(fn));
    }

    /// Cancels a pending event; no-op if already fired or cancelled.
    /// O(1): the slot's generation bump retires the id and the heap entry
    /// goes stale, to be skipped lazily at pop.
    void cancel(EventId id) {
        std::uint32_t slot;
        if (resolve(id, slot) != nullptr) release_slot(slot);
    }

    /// Moves a pending event to a new firing time (>= now()), keeping its
    /// callback, slot and id. Returns false — having done nothing — if the
    /// event already fired or was cancelled. The allocation-free re-arm
    /// path for protocol timers.
    bool reschedule(EventId id, Time when) {
        if (when < now_) throw_past("reschedule", when);
        std::uint32_t slot;
        EventSlot* s = resolve(id, slot);
        if (s == nullptr) return false;
        s->seq = next_seq_++;  // orphans the old heap/bucket entry
        push_event(when, s->seq, slot);
        return true;
    }

    /// True while `id` refers to an event that has neither fired nor been
    /// cancelled.
    bool is_pending(EventId id) const noexcept;

    /// Runs a single event; returns false when the queue is empty.
    bool step();

    /// Runs until the queue drains.
    void run();

    /// Runs events with time <= deadline, then sets now() = deadline.
    void run_until(Time deadline);

    /// Runs until `pred()` turns true or the queue drains; checks after
    /// every event. Returns the predicate's final value.
    bool run_while(const std::function<bool()>& pred);

    /// Runs every pending event with time <= `when`, moves the clock to
    /// `when`, then invokes `fn` as if it were an event scheduled there.
    /// This is the cross-shard delivery hook for the parallel driver:
    /// local events at the same timestamp fire first (a fixed, seed-stable
    /// tie rule), then the arrival executes and is counted in
    /// events_processed() exactly like the propagation event the
    /// sequential engine would have fired.
    template <typename F>
    void invoke_at(Time when, F&& fn) {
        if (when < now_) throw_past("invoke_at", when);
        run_until(when);
        ++events_processed_;
        fn();
    }

    /// Firing time (ns) of the earliest pending event at or before
    /// `bound_ns`, or INT64_MAX when none exists in that range. The
    /// parallel driver reduces it across shards to bound each time window.
    /// May migrate far-tier buckets up to the bound as a side effect; never
    /// fires events.
    std::int64_t next_event_ns(std::int64_t bound_ns);

    std::uint64_t events_processed() const noexcept { return events_processed_; }
    std::size_t pending_events() const noexcept { return live_; }
    EngineStats engine_stats() const noexcept {
        return EngineStats{events_processed_, stale_skimmed_, heap_max_, far_max_};
    }

    /// Per-simulation recycling pool for packet wire buffers. Every stack
    /// and link in a scenario shares it, so a datagram retired at one node
    /// funds the next datagram encoded at another. Scoped to the Simulator
    /// because scenarios in one process must not share mutable state.
    util::BufferPool& buffer_pool() noexcept { return buffer_pool_; }

private:
    static constexpr std::uint32_t kNilSlot = 0xffffffffu;

    // One pool entry. `seq` is the global schedule sequence number of the
    // slot's current arming: it breaks ties FIFO in the heap and doubles
    // as the staleness check at pop (a cancelled or rescheduled arming
    // leaves its old heap entry pointing at a slot whose seq moved on).
    // The firing time lives only in the heap entry or far node that
    // points here.
    struct EventSlot {
        std::uint64_t seq = 0;
        std::uint32_t generation = 1;
        std::uint32_t next_free = kNilSlot;
        bool armed = false;
        Callback fn;
    };

    // What the min-heap actually stores; 24 bytes, trivially copyable, so
    // sift operations never touch callbacks. The heap is 4-ary: half the
    // sift depth of a binary heap, and the four children share cache lines.
    struct HeapEntry {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    // Earliest time first; FIFO among equals by schedule sequence.
    static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
        if (a.when != b.when) return a.when < b.when;
        return a.seq < b.seq;
    }

    static constexpr EventId pack(std::uint32_t generation, std::uint32_t slot) noexcept {
        return (static_cast<EventId>(generation) << 32) | slot;
    }

    EventSlot* resolve(EventId id, std::uint32_t& slot_out) noexcept {
        const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
        const auto generation = static_cast<std::uint32_t>(id >> 32);
        if (slot >= slots_.size()) return nullptr;
        EventSlot& s = slots_[slot];
        if (!s.armed || s.generation != generation) return nullptr;
        slot_out = slot;
        return &s;
    }

    std::uint32_t acquire_slot() {
        if (free_head_ != kNilSlot) {
            const std::uint32_t slot = free_head_;
            free_head_ = slots_[slot].next_free;
            return slot;
        }
        return grow_slots();
    }

    void release_slot(std::uint32_t index) noexcept {
        EventSlot& s = slots_[index];
        s.armed = false;
        // Bumping the generation retires every EventId handed out for this
        // arming; 0 is skipped on wraparound so packed ids stay nonzero.
        if (++s.generation == 0) s.generation = 1;
        s.fn.reset();
        s.next_free = free_head_;
        free_head_ = index;
        --live_;
    }

    /// Routes a fresh (or re-armed) event to the near heap or a far
    /// bucket. The invariant the whole engine rests on: every live heap
    /// entry has when < far_horizon_ and every live far entry has
    /// when >= far_horizon_, so a nonempty (skimmed) heap top is always
    /// the globally next event.
    void push_event(Time when, std::uint64_t seq, std::uint32_t slot) {
        if (when.nanos() < far_horizon_) {
            push_heap_entry(when, seq, slot);
        } else {
            std::uint32_t node;
            if (far_free_ != kNilSlot) {
                node = far_free_;
                far_free_ = far_nodes_[node].next;
            } else {
                node = static_cast<std::uint32_t>(far_nodes_.size());
                far_nodes_.emplace_back();
            }
            auto& head =
                far_head_[static_cast<std::uint64_t>(when.nanos() >> kFarShift) % kFarBuckets];
            far_nodes_[node] = FarNode{when, seq, slot, head};
            head = node;
            ++far_count_;
            far_max_ = std::max<std::uint64_t>(far_max_, far_count_);
            // Cancel/re-arm churn strands stale copies in the buckets; sweep
            // when they dominate, amortized O(1) per append.
            if (far_count_ > 64 && far_count_ > 4 * live_) compact_far();
        }
    }

    void push_heap_entry(Time when, std::uint64_t seq, std::uint32_t slot) {
        const HeapEntry e{when, seq, slot};
        std::size_t i = heap_.size();
        heap_.push_back(e);
        heap_max_ = std::max<std::uint64_t>(heap_max_, heap_.size());
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 2;
            if (!before(e, heap_[parent])) break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
        // Cancel- or reschedule-heavy workloads strand stale entries whose
        // firing time never reaches the top. Sweep them out when they
        // dominate, keeping the heap O(live) without per-cancel surgery.
        if (heap_.size() > 64 && heap_.size() > 4 * live_) compact_heap();
    }

    // Restores the heap property downward from `i`, assuming the subtrees
    // below are valid heaps.
    void sift_down(std::size_t i) {
        const std::size_t n = heap_.size();
        const HeapEntry e = heap_[i];
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n) break;
            std::size_t best = first;
            const std::size_t end = first + 4 < n ? first + 4 : n;
            for (std::size_t k = first + 1; k < end; ++k) {
                if (before(heap_[k], heap_[best])) best = k;
            }
            if (!before(heap_[best], e)) break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = e;
    }

    // Removes heap_[0], restoring the 4-ary heap property.
    void pop_heap_entry() {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) sift_down(0);
    }

    [[noreturn]] void throw_past(const char* what, Time when) const;
    std::uint32_t grow_slots();
    void compact_heap();

    // --- far tier ------------------------------------------------------
    // Distant events (when >= far_horizon_) sit unsorted in calendar
    // buckets of 2^kFarShift ns keyed by (when >> kFarShift) mod
    // kFarBuckets. Scheduling far is an O(1) append; ordering work happens
    // only if the event survives long enough to migrate into the heap.
    // Bucket entries live in one free-listed node slab chained by index —
    // capacity is shared across buckets and warmed once, so the steady
    // state stays allocation-free even as the clock rolls into calendar
    // windows it has never touched before (a per-bucket vector would
    // allocate on each first touch).
    static constexpr int kFarShift = 26;        // bucket width ~67 ms
    static constexpr std::size_t kFarBuckets = 64;

    struct FarNode {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t next;  ///< bucket chain / free list link
    };

    /// Skims stale heap tops, then migrates far buckets forward until the
    /// heap holds the globally next event or no event exists at or before
    /// `bound_ns`. Returns the valid top, or nullptr.
    const HeapEntry* prepare_top(std::int64_t bound_ns);

    /// Pops and runs heap_[0], the valid top prepare_top just returned.
    /// Before the callback runs it prefetches the slot of the event after
    /// next and asks the next event's callback to prefetch; run_until and
    /// step() share it, so each event is prepared once and fired once.
    void fire();

    /// Migrates the bucket at far_horizon_ into the heap (live, due
    /// entries), keeps later-lap entries, drops stale ones, and advances
    /// far_horizon_ one window. Returns how many entries left the bucket.
    std::size_t advance_far_window();

    /// Earliest `when` among bucket entries (live or stale); max() if none.
    std::int64_t far_min_ns() const;

    /// Keeps far_horizon_ ahead of the clock so near-term schedules keep
    /// taking the heap path after a big run_until jump.
    void raise_horizon_past_now();

    /// Drops stale bucket entries in place (capacity retained).
    void compact_far();

    std::vector<EventSlot> slots_;
    std::vector<HeapEntry> heap_;
    std::vector<FarNode> far_nodes_;
    std::array<std::uint32_t, kFarBuckets> far_head_ = make_nil_heads();
    std::uint32_t far_free_ = kNilSlot;
    std::size_t far_count_ = 0;  ///< bucket entries, live and stale
    std::int64_t far_horizon_ = std::int64_t{1} << kFarShift;

    static constexpr std::array<std::uint32_t, kFarBuckets> make_nil_heads() {
        std::array<std::uint32_t, kFarBuckets> a{};
        a.fill(kNilSlot);
        return a;
    }
    std::uint32_t free_head_ = kNilSlot;
    std::size_t live_ = 0;  ///< armed slots = pending events
    Time now_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t events_processed_ = 0;
    std::uint64_t stale_skimmed_ = 0;
    std::uint64_t heap_max_ = 0;
    std::uint64_t far_max_ = 0;
    util::BufferPool buffer_pool_;
};

}  // namespace catenet::sim
