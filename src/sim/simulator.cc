#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace catenet::sim {

std::string Time::to_string() const {
    std::ostringstream os;
    const auto n = ns_;
    if (n == 0) {
        os << "0s";
    } else if (n % 1000000000 == 0) {
        os << n / 1000000000 << "s";
    } else if (n < 1000000) {
        os << micros() << "us";
    } else if (n < 1000000000) {
        os << millis() << "ms";
    } else {
        os << seconds() << "s";
    }
    return os.str();
}

std::ostream& operator<<(std::ostream& os, Time t) { return os << t.to_string(); }

void Simulator::throw_past(const char* what, Time when) const {
    throw std::logic_error("Simulator::" + std::string(what) + " in the past: " +
                           when.to_string() + " < " + now_.to_string());
}

std::uint32_t Simulator::grow_slots() {
    if (slots_.size() >= kNilSlot) {
        throw std::length_error("Simulator: event slot space exhausted");
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::compact_heap() {
    std::erase_if(heap_, [this](const HeapEntry& e) {
        const EventSlot& s = slots_[e.slot];
        return !s.armed || s.seq != e.seq;
    });
    // Bottom-up heapify: O(n), and compaction runs amortized O(1) per
    // schedule because the heap must double in stale entries to retrigger.
    if (heap_.size() > 1) {
        for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
            sift_down(i);
        }
    }
}

void Simulator::compact_far() {
    for (auto& head : far_head_) {
        std::uint32_t* link = &head;
        while (*link != kNilSlot) {
            FarNode& n = far_nodes_[*link];
            const EventSlot& s = slots_[n.slot];
            if (s.armed && s.seq == n.seq) {
                link = &n.next;
            } else {
                const std::uint32_t freed = *link;
                *link = n.next;
                n.next = far_free_;
                far_free_ = freed;
                --far_count_;
            }
        }
    }
}

std::int64_t Simulator::far_min_ns() const {
    std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
    for (const auto head : far_head_) {
        for (std::uint32_t i = head; i != kNilSlot; i = far_nodes_[i].next) {
            min_ns = std::min(min_ns, far_nodes_[i].when.nanos());
        }
    }
    return min_ns;
}

std::size_t Simulator::advance_far_window() {
    auto& head = far_head_[static_cast<std::uint64_t>(far_horizon_ >> kFarShift) % kFarBuckets];
    far_horizon_ += std::int64_t{1} << kFarShift;
    if (head == kNilSlot) return 0;
    std::size_t moved = 0;
    std::uint32_t* link = &head;
    while (*link != kNilSlot) {
        FarNode& n = far_nodes_[*link];
        const EventSlot& s = slots_[n.slot];
        const bool stale = !s.armed || s.seq != n.seq;  // cancelled / re-armed elsewhere
        if (!stale && n.when.nanos() >= far_horizon_) {
            link = &n.next;  // same ring slot, a later lap: keep
            continue;
        }
        if (!stale) push_heap_entry(n.when, n.seq, n.slot);  // due in the new window
        const std::uint32_t freed = *link;
        *link = n.next;
        n.next = far_free_;
        far_free_ = freed;
        --far_count_;
        ++moved;
    }
    return moved;
}

const Simulator::HeapEntry* Simulator::prepare_top(std::int64_t bound_ns) {
    for (std::size_t empty_streak = 0;;) {
        while (!heap_.empty()) {
            const HeapEntry& top = heap_.front();
            const EventSlot& s = slots_[top.slot];
            if (s.armed && s.seq == top.seq) return &top;  // global min: heap < horizon <= far
            pop_heap_entry();
        }
        if (far_count_ == 0 || far_horizon_ > bound_ns) return nullptr;
        if (advance_far_window() != 0) {
            empty_streak = 0;
        } else if (++empty_streak >= kFarBuckets) {
            // A whole lap of empty windows: the next event is far beyond the
            // current position. Drop stale entries, then jump the horizon to
            // the earliest survivor's window (safe: nothing live lies below
            // it) instead of crawling bucket by bucket.
            compact_far();
            if (far_count_ == 0) return nullptr;
            far_horizon_ = std::max(far_horizon_, (far_min_ns() >> kFarShift) << kFarShift);
            empty_streak = 0;
        }
    }
}

void Simulator::raise_horizon_past_now() {
    if (far_horizon_ > now_.nanos()) return;
    if (far_count_ == 0) {
        // Nothing parked: snap the horizon just past the clock so fresh
        // near-term schedules keep taking the heap path.
        far_horizon_ = ((now_.nanos() >> kFarShift) + 1) << kFarShift;
        return;
    }
    // Entries may lie between the old horizon and now (all stale or still
    // future within the window); walk the windows so they migrate or drop.
    std::size_t empty_streak = 0;
    while (far_horizon_ <= now_.nanos()) {
        if (advance_far_window() != 0) {
            empty_streak = 0;
        } else if (++empty_streak >= kFarBuckets) {
            compact_far();
            if (far_count_ == 0) {
                far_horizon_ = ((now_.nanos() >> kFarShift) + 1) << kFarShift;
                return;
            }
            // Live entries are all in the future; jump to whichever comes
            // first, their window or the clock's.
            const std::int64_t target =
                std::min((far_min_ns() >> kFarShift) << kFarShift,
                         ((now_.nanos() >> kFarShift) + 1) << kFarShift);
            far_horizon_ = std::max(far_horizon_, target);
            empty_streak = 0;
        }
    }
}

std::int64_t Simulator::next_event_ns(std::int64_t bound_ns) {
    const HeapEntry* top = prepare_top(bound_ns);
    if (top == nullptr || top->when.nanos() > bound_ns) {
        return std::numeric_limits<std::int64_t>::max();
    }
    return top->when.nanos();
}

bool Simulator::is_pending(EventId id) const noexcept {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    return slot < slots_.size() && slots_[slot].armed &&
           slots_[slot].generation == generation;
}

bool Simulator::step() {
    const HeapEntry* prepared = prepare_top(std::numeric_limits<std::int64_t>::max());
    if (prepared == nullptr) return false;
    const HeapEntry top = *prepared;
    pop_heap_entry();
    EventSlot& s = slots_[top.slot];
    now_ = top.when;
    // Move the callback out and free the slot *before* invoking: the
    // callback may cancel its own (now stale) id or schedule new
    // events — typically re-arming into this very slot.
    Callback fn = std::move(s.fn);
    release_slot(top.slot);
    ++events_processed_;
    fn();
    return true;
}

void Simulator::run() {
    while (step()) {
    }
}

void Simulator::run_until(Time deadline) {
    for (;;) {
        // prepare_top is bounded by the deadline so a short run never drags
        // distant buckets into the heap (the far tier's whole point).
        const HeapEntry* top = prepare_top(deadline.nanos());
        if (top == nullptr || top->when > deadline) break;
        step();
    }
    if (deadline > now_) {
        now_ = deadline;
        raise_horizon_past_now();
    }
}

bool Simulator::run_while(const std::function<bool()>& pred) {
    while (pred()) {
        if (!step()) return pred();
    }
    return false;
}

}  // namespace catenet::sim
