// Unit tests for the discrete-event engine: ordering, cancellation,
// bounded runs, timers — plus the slot/generation pool's id-safety and
// allocation guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/timer.h"

// Global allocation counter for the zero-allocation guarantees below.
// Counts every operator-new in this test binary; tests measure deltas
// around tight loops that make no other calls.
namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// The nothrow forms must be overridden too: libstdc++'s temporary buffers
// (std::inplace_merge in RoutingTable::bulk_load) allocate with
// operator new(nothrow) but release through plain operator delete — if
// only the throwing forms route to malloc, the pairing splits across
// allocators (ASan flags the mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace catenet::sim {
namespace {

TEST(Time, ArithmeticAndFormat) {
    EXPECT_EQ(milliseconds(3) + microseconds(500), microseconds(3500));
    EXPECT_EQ(seconds(1) - milliseconds(250), milliseconds(750));
    EXPECT_EQ((seconds(2) * 3).seconds(), 6.0);
    EXPECT_DOUBLE_EQ(seconds(1) / milliseconds(250), 4.0);
    EXPECT_EQ(seconds(2).to_string(), "2s");
    EXPECT_LT(milliseconds(1), seconds(1));
}

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
    sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
    sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(Simulator, EqualTimesFireFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelPreventsExecution) {
    Simulator sim;
    bool fired = false;
    const auto id = sim.schedule_at(milliseconds(1), [&] { fired = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
    Simulator sim;
    const auto id = sim.schedule_at(milliseconds(1), [] {});
    sim.run();
    sim.cancel(id);  // no-op
    sim.cancel(id);
    EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, SchedulingInPastThrows) {
    Simulator sim;
    sim.schedule_at(milliseconds(10), [] {});
    sim.run();
    EXPECT_THROW(sim.schedule_at(milliseconds(5), [] {}), std::logic_error);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule_at(seconds(i), [&] { ++count; });
    }
    sim.run_until(seconds(5));
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), seconds(5));
    sim.run_until(seconds(20));
    EXPECT_EQ(count, 10);
    EXPECT_EQ(sim.now(), seconds(20));
}

TEST(Simulator, EventsCanScheduleEvents) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100) sim.schedule_after(milliseconds(1), recurse);
    };
    sim.schedule_after(milliseconds(1), recurse);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), milliseconds(100));
}

TEST(Simulator, RunWhileStopsOnPredicate) {
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 100; ++i) {
        sim.schedule_at(milliseconds(i), [&] { ++count; });
    }
    sim.run_while([&] { return count < 7; });
    EXPECT_EQ(count, 7);
}

TEST(Simulator, CancelAfterFireDoesNotKillSlotReuser) {
    // The fired event's slot is immediately reusable; the stale id must
    // not cancel whatever new event landed in that slot.
    Simulator sim;
    bool first = false, second = false;
    const auto stale = sim.schedule_at(milliseconds(1), [&] { first = true; });
    sim.run();
    ASSERT_TRUE(first);
    const auto fresh = sim.schedule_at(milliseconds(2), [&] { second = true; });
    EXPECT_EQ(fresh & 0xffffffffu, stale & 0xffffffffu) << "slot should be reused";
    EXPECT_NE(fresh, stale) << "generation must differ";
    sim.cancel(stale);  // no-op: generation moved on
    EXPECT_TRUE(sim.is_pending(fresh));
    sim.run();
    EXPECT_TRUE(second);
}

TEST(Simulator, CancelTwiceDoesNotKillSlotReuser) {
    Simulator sim;
    bool fired = false;
    const auto stale = sim.schedule_at(milliseconds(1), [] {});
    sim.cancel(stale);
    const auto fresh = sim.schedule_at(milliseconds(1), [&] { fired = true; });
    sim.cancel(stale);  // double-cancel targets the retired generation
    sim.cancel(stale);
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, RescheduleMovesFiringTime) {
    Simulator sim;
    Time fired_at;
    const auto id = sim.schedule_at(milliseconds(5), [&] { fired_at = sim.now(); });
    EXPECT_TRUE(sim.reschedule(id, milliseconds(40)));
    sim.run();
    EXPECT_EQ(fired_at, milliseconds(40));
    EXPECT_EQ(sim.events_processed(), 1u) << "the old arming must not fire too";
    EXPECT_FALSE(sim.reschedule(id, milliseconds(50))) << "already fired";
}

TEST(Simulator, RescheduleInsideCallback) {
    // A firing event pushes a still-pending peer further out — the
    // soft-state-refresh pattern. The peer must fire exactly once, at the
    // new time.
    Simulator sim;
    std::vector<int> order;
    EventId peer = kInvalidEventId;
    sim.schedule_at(milliseconds(10), [&] {
        order.push_back(1);
        EXPECT_TRUE(sim.reschedule(peer, milliseconds(30)));
    });
    peer = sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
    sim.schedule_at(milliseconds(25), [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, RescheduleEarlierRunsBeforeInterveners) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
    const auto id = sim.schedule_at(milliseconds(50), [&] { order.push_back(2); });
    sim.reschedule(id, milliseconds(5));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, IdReuseAcrossManyScheduleCancelCycles) {
    // A million schedule/cancel cycles funnel through the same slot; every
    // handed-out id must be distinct from its predecessor and stale ids
    // must stay dead even as the generation counter climbs.
    Simulator sim;
    constexpr int kCycles = 1 << 20;
    EventId previous = kInvalidEventId;
    for (int i = 0; i < kCycles; ++i) {
        const auto id = sim.schedule_after(milliseconds(1), [] { FAIL(); });
        ASSERT_NE(id, previous);
        ASSERT_NE(id, kInvalidEventId);
        sim.cancel(id);
        ASSERT_FALSE(sim.is_pending(id));
        if (previous != kInvalidEventId) sim.cancel(previous);  // stale no-op
        previous = id;
    }
    EXPECT_EQ(sim.pending_events(), 0u);
    // The engine is still fully functional afterwards.
    bool fired = false;
    sim.schedule_after(milliseconds(1), [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, ScheduleCancelIsAllocationFreeAtSteadyState) {
    // The hot-path guarantee: once the slab and heap have grown to
    // capacity, schedule/cancel with captures <= 48 bytes never allocates.
    Simulator sim;
    struct Fat {
        std::uint64_t a = 1, b = 2, c = 3, d = 4;
        std::uint64_t* out;
    } fat{};
    std::uint64_t sink = 0;
    fat.out = &sink;
    static_assert(sizeof(Fat) <= util::InlineCallback::kInlineSize);
    for (int i = 0; i < 4096; ++i) {  // warm-up: grow slab, heap, free list
        sim.cancel(sim.schedule_after(milliseconds(1), [fat] { *fat.out += fat.a; }));
    }
    const std::uint64_t before = g_heap_allocs;
    for (int i = 0; i < 4096; ++i) {
        const auto id = sim.schedule_after(milliseconds(1), [fat] { *fat.out += fat.a; });
        sim.cancel(id);
    }
    EXPECT_EQ(g_heap_allocs - before, 0u);
}

TEST(Simulator, TimerRearmIsAllocationFreeAtSteadyState) {
    Simulator sim;
    std::uint64_t fires = 0;
    Timer t(sim, [&fires] { ++fires; });
    t.schedule(milliseconds(5));
    for (int i = 0; i < 1024; ++i) t.schedule(milliseconds(5));  // warm-up
    const std::uint64_t before = g_heap_allocs;
    for (int i = 0; i < 4096; ++i) t.schedule(milliseconds(5));
    EXPECT_EQ(g_heap_allocs - before, 0u);
    sim.run();
    EXPECT_EQ(fires, 1u) << "re-arming must collapse to a single firing";
}

TEST(InlineCallbackEngine, OversizedCapturesStillWork) {
    // Captures beyond the inline budget take the heap fallback and must
    // behave identically.
    Simulator sim;
    struct Big {
        std::uint64_t words[12];  // 96 bytes > 48
    } big{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}};
    static_assert(!util::InlineCallback::fits_inline<Big>());
    std::uint64_t got = 0;
    sim.schedule_after(milliseconds(1), [big, &got] { got = big.words[11]; });
    sim.run();
    EXPECT_EQ(got, 12u);
}

TEST(Timer, SchedulesAndFires) {
    Simulator sim;
    int fires = 0;
    Timer t(sim, [&] { ++fires; });
    t.schedule(milliseconds(5));
    EXPECT_TRUE(t.pending());
    EXPECT_EQ(t.expiry(), milliseconds(5));
    sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleReplacesPrevious) {
    Simulator sim;
    int fires = 0;
    Timer t(sim, [&] { ++fires; });
    t.schedule(milliseconds(5));
    t.schedule(milliseconds(50));
    sim.run_until(milliseconds(10));
    EXPECT_EQ(fires, 0);
    sim.run_until(milliseconds(100));
    EXPECT_EQ(fires, 1);
}

TEST(Timer, ScheduleIfIdleKeepsEarlierDeadline) {
    Simulator sim;
    int fires = 0;
    Timer t(sim, [&] { ++fires; });
    t.schedule(milliseconds(5));
    t.schedule_if_idle(milliseconds(50));  // ignored: already pending
    sim.run_until(milliseconds(10));
    EXPECT_EQ(fires, 1);
}

TEST(Timer, DestructionCancels) {
    Simulator sim;
    int fires = 0;
    {
        Timer t(sim, [&] { ++fires; });
        t.schedule(milliseconds(5));
    }
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, CanRescheduleItselfFromCallback) {
    Simulator sim;
    int fires = 0;
    Timer* self = nullptr;
    Timer t(sim, [&] {
        if (++fires < 5) self->schedule(milliseconds(1));
    });
    self = &t;
    t.schedule(milliseconds(1));
    sim.run();
    EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, FiresAtPeriod) {
    Simulator sim;
    std::vector<Time> fire_times;
    PeriodicTimer t(sim, [&] { fire_times.push_back(sim.now()); });
    t.start(seconds(2));
    sim.run_until(seconds(7));
    ASSERT_EQ(fire_times.size(), 3u);
    EXPECT_EQ(fire_times[0], seconds(2));
    EXPECT_EQ(fire_times[2], seconds(6));
}

TEST(PeriodicTimer, StartImmediatelyFiresAtZero) {
    Simulator sim;
    std::vector<Time> fire_times;
    PeriodicTimer t(sim, [&] { fire_times.push_back(sim.now()); });
    t.start(seconds(1), /*start_immediately=*/true);
    sim.run_until(milliseconds(2500));
    ASSERT_EQ(fire_times.size(), 3u);
    EXPECT_EQ(fire_times[0], Time(0));
}

TEST(PeriodicTimer, StopHalts) {
    Simulator sim;
    int fires = 0;
    PeriodicTimer t(sim, [&] { ++fires; });
    t.start(seconds(1));
    sim.run_until(milliseconds(3500));
    t.stop();
    sim.run_until(seconds(10));
    EXPECT_EQ(fires, 3);
    EXPECT_FALSE(t.running());
}

// --- the far (calendar) tier of the event store -------------------------

TEST(FarEvents, DistantEventsFireInOrderAcrossWindows) {
    // Spread events across many 67ms calendar windows, interleaved with
    // near-term ones, scheduled in adversarial (reverse) order.
    Simulator sim;
    std::vector<std::int64_t> fired;
    for (int i = 40; i-- > 0;) {
        const std::int64_t when = std::int64_t{i} * 500'000'000 + 123;  // every 0.5s
        sim.schedule_at(Time(when), [&fired, when] { fired.push_back(when); });
    }
    sim.schedule_after(microseconds(5), [&fired] { fired.push_back(5'000); });
    sim.run();
    ASSERT_EQ(fired.size(), 41u);
    EXPECT_EQ(fired.front(), 123);  // the i=0 event precedes the 5us one
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(FarEvents, CancelAndRescheduleInFarWindows) {
    Simulator sim;
    int fired = 0;
    // Far-future event, cancelled before its window opens: must not fire.
    auto doomed = sim.schedule_at(Time(seconds(30)), [&fired] { fired += 100; });
    sim.cancel(doomed);
    EXPECT_FALSE(sim.is_pending(doomed));
    // Far-future event rescheduled earlier, into another far window.
    auto moved = sim.schedule_at(Time(seconds(20)), [&fired] { ++fired; });
    sim.reschedule(moved, Time(seconds(10)));
    // And one rescheduled from far into the near window.
    auto near = sim.schedule_at(Time(seconds(40)), [&fired] { fired += 10; });
    sim.reschedule(near, Time(milliseconds(1)));
    sim.run();
    EXPECT_EQ(fired, 11);
    EXPECT_EQ(sim.now(), Time(seconds(10)));
}

TEST(FarEvents, RunUntilDeadlineDoesNotDisturbFarEvents) {
    Simulator sim;
    bool fired = false;
    sim.schedule_at(Time(seconds(100)), [&fired] { fired = true; });
    sim.run_until(Time(seconds(99)));  // clock jumps far past many windows
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), Time(seconds(99)));
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), Time(seconds(100)));
}

TEST(FarEvents, SteadyStateFarRearmIsAllocationFree) {
    // The RTO pattern at far distances: a standing population of timers
    // parked seconds out, re-armed round-robin. After warmup the far
    // tier's node slab and bucket chains must be capacity-stable.
    Simulator sim;
    std::uint64_t fires = 0;
    std::vector<std::unique_ptr<Timer>> timers;
    for (int i = 0; i < 64; ++i) {
        timers.push_back(std::make_unique<Timer>(sim, [&fires] { ++fires; }));
        timers.back()->schedule(seconds(2 + i % 5));
    }
    // The re-armed population never comes due (each lap pushes it back out,
    // exactly like an RTO that keeps being satisfied). These parked
    // one-shots are left alone so the far tier provably delivers during
    // both the warm and the measured laps.
    std::vector<std::unique_ptr<Timer>> oneshots;
    for (int i = 0; i < 12; ++i) {
        oneshots.push_back(std::make_unique<Timer>(sim, [&fires] { ++fires; }));
        oneshots.back()->schedule(seconds(1 + 2 * i));
    }
    // Warm: several full re-arm laps plus time creep across windows.
    std::size_t next = 0;
    for (int i = 0; i < 4096; ++i) {
        timers[next]->schedule(seconds(3));
        if (++next == timers.size()) {
            next = 0;
            sim.run_until(sim.now() + milliseconds(200));
        }
    }
    const std::uint64_t before = g_heap_allocs;
    for (int i = 0; i < 4096; ++i) {
        timers[next]->schedule(seconds(3));
        if (++next == timers.size()) {
            next = 0;
            sim.run_until(sim.now() + milliseconds(200));
        }
    }
    EXPECT_EQ(g_heap_allocs - before, 0u)
        << "far-tier re-arm path allocated at steady state";
    EXPECT_GT(fires, 0u);
}

// --- the dispatch pipeline ---------------------------------------------
// While an event runs, the engine has already looked at the next event
// (its callback's prefetch() ran) and at the one after it (its slot was
// prefetched). Whatever the running event does to those two, the fire
// order must equal a reference model's: pending events ordered by
// (when, seq), with a fresh seq at every schedule and reschedule.

/// Prefetch-spy log: which labels had prefetch() called, in call order,
/// interleaved with the labels cancelled (as -label - 1).
std::vector<int> g_pipeline_log;

struct Probe {
    int label;
    std::function<void(int)>* on_fire;
    void operator()() { (*on_fire)(label); }
    void prefetch() const noexcept { g_pipeline_log.push_back(label); }
};

class PipelineHarness {
public:
    PipelineHarness() {
        g_pipeline_log.clear();
        on_fire_ = [this](int label) { fired(label); };
    }

    /// Schedules `label` at `when` in the engine and the model.
    void add(int label, std::int64_t when) {
        ids_[label] = sim.schedule_at(Time(when), Probe{label, &on_fire_});
        model_key(label, when);
    }
    void cancel(int label) {
        sim.cancel(ids_.at(label));
        model_.erase(keys_.at(label));
        keys_.erase(label);
        g_pipeline_log.push_back(-label - 1);
    }
    void reschedule(int label, std::int64_t when) {
        ASSERT_TRUE(sim.reschedule(ids_.at(label), Time(when)));
        model_.erase(keys_.at(label));
        model_key(label, when);
    }
    /// Runs `action` inside the event labelled `label`.
    void on(int label, std::function<void()> action) { actions_[label] = std::move(action); }

    /// The model's next and after-next pending labels, as seen from inside
    /// the running event.
    int next() const { return model_.begin()->second; }
    int after_next() const { return std::next(model_.begin())->second; }

    Simulator sim;
    std::vector<int> order;     ///< labels as the engine fired them
    std::vector<int> expected;  ///< labels as the model pops them

private:
    void model_key(int label, std::int64_t when) {
        keys_[label] = {when, ++seq_};
        model_[keys_[label]] = label;
    }
    void fired(int label) {
        order.push_back(label);
        expected.push_back(model_.begin()->second);
        keys_.erase(model_.begin()->second);
        model_.erase(model_.begin());
        if (auto it = actions_.find(label); it != actions_.end()) it->second();
    }

    std::function<void(int)> on_fire_;
    std::map<int, EventId> ids_;
    std::map<int, std::pair<std::int64_t, std::uint64_t>> keys_;
    std::map<std::pair<std::int64_t, std::uint64_t>, int> model_;
    std::map<int, std::function<void()>> actions_;
    std::uint64_t seq_ = 0;
};

TEST(Pipeline, RunningEventMayChangeTheNextTwoEvents) {
    // Labels 1..8 at 10, 20, ..., 80 ns; label 1 fires first and acts on
    // the event the engine prepared next (2) or after next (3).
    enum class Act { Cancel, Earlier, ToNow, Later, Rearm };
    for (const Act act : {Act::Cancel, Act::Earlier, Act::ToNow, Act::Later, Act::Rearm}) {
        for (const bool after_next : {false, true}) {
            PipelineHarness h;
            for (int label = 1; label <= 8; ++label) h.add(label, label * 10);
            h.on(1, [&h, act, after_next] {
                const int target = after_next ? h.after_next() : h.next();
                switch (act) {
                    case Act::Cancel: h.cancel(target); break;
                    case Act::Earlier: h.reschedule(target, 15); break;
                    case Act::ToNow: h.reschedule(target, 10); break;
                    case Act::Later: h.reschedule(target, 55); break;
                    case Act::Rearm:
                        // The freed slot is the next one a schedule takes.
                        h.cancel(target);
                        h.add(100, 12);
                        h.add(101, 45);
                        break;
                }
            });
            h.sim.run();
            EXPECT_EQ(h.order, h.expected)
                << "act " << static_cast<int>(act) << (after_next ? " after next" : " next");
            EXPECT_EQ(h.sim.pending_events(), 0u);
        }
    }
}

TEST(Pipeline, EveryEventChurnsItsSuccessors) {
    // Each event cancels, reschedules or re-arms one of the two events
    // after it, cycling through the moves, for a few hundred events.
    PipelineHarness h;
    int next_label = 1;
    for (; next_label <= 300; ++next_label) h.add(next_label, next_label * 7 % 50 + 10);
    for (int label = 1; label < 300; ++label) {
        h.on(label, [&h, &next_label, label] {
            if (h.sim.pending_events() < 2) return;
            const int target = label % 2 == 0 ? h.next() : h.after_next();
            const std::int64_t now = h.sim.now().nanos();
            switch (label % 4) {
                case 0: h.cancel(target); break;
                case 1: h.reschedule(target, now + label % 3); break;
                case 2: h.reschedule(target, now + 40); break;
                case 3:
                    h.cancel(target);
                    h.add(next_label++, now + label % 5);
                    break;
            }
        });
    }
    h.sim.run();
    EXPECT_EQ(h.order, h.expected);
    EXPECT_GT(h.order.size(), 200u);
}

TEST(Pipeline, EqualTimeCohortOfAThousandFiresInScheduleOrder) {
    PipelineHarness h;
    for (int label = 1; label <= 1000; ++label) h.add(label, 500);
    // Inside the cohort: cancel a later member, and append two more at the
    // same time (they fire after everything already scheduled).
    h.on(10, [&h] { h.cancel(11); });
    h.on(20, [&h] { h.add(1001, 500); h.add(1002, 500); });
    h.on(999, [&h] { h.cancel(1000); });
    h.sim.run();
    EXPECT_EQ(h.order, h.expected);
    ASSERT_EQ(h.order.size(), 1000u);
    EXPECT_EQ(h.order.back(), 1002);
}

TEST(Pipeline, RunUntilDeadlineBetweenTheTwoLookedAheadEvents) {
    PipelineHarness h;
    h.add(1, 10);
    h.add(2, 20);
    h.add(3, 30);
    // When 1 fires, 2 is next and 3 after next; the deadline falls
    // between them, so 3 must wait however far ahead the engine looked.
    h.sim.run_until(Time(25));
    EXPECT_EQ(h.order, (std::vector<int>{1, 2}));
    EXPECT_EQ(h.sim.now(), Time(25));
    h.add(4, 27);
    h.sim.run_until(Time(15) + Time(25));
    EXPECT_EQ(h.order, (std::vector<int>{1, 2, 4, 3}));
    EXPECT_EQ(h.order, h.expected);
    // A deadline between the running event and the next one.
    h.add(5, 50);
    h.add(6, 60);
    h.sim.run_until(Time(55));
    EXPECT_EQ(h.order, (std::vector<int>{1, 2, 4, 3, 5}));
    h.sim.run();
    EXPECT_EQ(h.order, h.expected);
}

TEST(Pipeline, NextEventIsPrefetchedOnceAndACancelledOneNeverAfterItsCancel) {
    PipelineHarness h;
    for (int label = 1; label <= 6; ++label) h.add(label, label * 10);
    h.on(2, [&h] { h.cancel(3); });  // 3 was prefetched as 2's successor
    h.on(4, [&h] { h.cancel(6); });  // 6 was only the slot after next
    h.sim.run();
    EXPECT_EQ(h.order, (std::vector<int>{1, 2, 4, 5}));
    // Each event was prefetched at most once, by its predecessor, before it
    // fired: 2 by 1, 3 by 2 (then cancelled), 5 by 4. 4 was not: when 2
    // ran, 3 was next. 6 was never next.
    EXPECT_EQ(g_pipeline_log, (std::vector<int>{2, 3, -4, 5, -7}));
    for (int cancelled : {3, 6}) {
        const auto mark = std::find(g_pipeline_log.begin(), g_pipeline_log.end(), -cancelled - 1);
        ASSERT_NE(mark, g_pipeline_log.end());
        EXPECT_EQ(std::find(mark, g_pipeline_log.end(), cancelled), g_pipeline_log.end())
            << cancelled << "'s prefetch ran after its cancel";
    }
}

}  // namespace
}  // namespace catenet::sim
