// Conservative parallel simulation: one single-threaded Simulator per
// shard, synchronized only at shard boundaries. The design leans directly
// on the architecture being simulated — the catenet couples autonomous
// networks through gateways, and fate-sharing keeps all connection state
// in the end hosts, so cutting the topology at gateway links severs no
// shared state. Each cut link's latency is a hard lower bound (the
// "lookahead") on how soon one shard can affect another.
//
// Synchronization model (time windows between barriers):
//  - Every cross-shard link direction is a BoundaryChannel. Its producer
//    appends timestamped datagrams while windows run (or between
//    run_until calls); its consumer stages them between windows. The
//    barriers order every producer write before every consumer read, so a
//    channel needs no atomics.
//  - Between windows the shards reduce gvt: the earliest pending thing
//    anywhere — a local event or a staged arrival. Nothing that has not
//    run yet is earlier, so nothing sent from here on can arrive before
//    gvt + L, where L is the smallest lookahead of any channel.
//  - The next window therefore runs every shard to end = gvt + L − 1
//    (capped at the deadline): staged arrivals due by then are merged
//    deterministically — by (deliver time, channel id, channel seq),
//    through a min-heap of the in-channels' heads, so an arrival costs
//    O(log C) in C in-channels — and injected with Simulator::invoke_at,
//    which fires same-timestamp local events first (the fixed tie rule).
//    Every window runs the event at gvt, and an idle stretch costs
//    nothing: when gvt is past the deadline the call ends after one
//    reduction.
//
// Determinism: window bounds and the merged arrival order depend only on
// event times and registration order, never on thread timing, so a seeded
// run is bit-identical across executions and thread counts — asserted in
// tests/test_parallel.cc and test_determinism.cc.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace catenet::sim {

/// One direction of a cross-shard link: a cut link::PointToPointLink's
/// outbox. ParallelSimulator sees only the consumer side. The producer
/// appends on the source shard's thread, the consumer-side calls run on
/// the destination shard's, and ParallelSimulator's barriers keep stage()
/// apart from every append.
class BoundaryChannel {
public:
    virtual ~BoundaryChannel() = default;

    virtual std::uint32_t source_shard() const noexcept = 0;
    virtual std::uint32_t dest_shard() const noexcept = 0;

    /// The least delay between a send and its delivery; at least 1 ns.
    virtual std::int64_t lookahead_ns() const noexcept = 0;

    // --- consumer side ------------------------------------------------
    /// Moves what the producer sent since the last call into the channel's
    /// local staging order. Called only between windows.
    virtual void stage() = 0;

    /// Earliest staged, undelivered arrival time, or INT64_MAX. Equal-time
    /// arrivals on one channel leave in send order.
    virtual std::int64_t staged_head_ns() const = 0;

    /// Delivers the head arrival into the destination stack. The driver
    /// has already advanced the destination simulator to the arrival time.
    virtual void deliver_head() = 0;
};

/// Runs N per-shard Simulators to a common deadline in time windows,
/// exchanging cross-shard datagrams through registered BoundaryChannels
/// between windows.
///
/// `threads` = 0 runs one OS thread per shard; 1 runs everything
/// cooperatively on the caller's thread (useful for determinism baselines,
/// allocation-counting tests, and single-core boxes); k in between
/// multiplexes shards over k threads round-robin. The simulated result is
/// identical in every case.
class ParallelSimulator {
public:
    explicit ParallelSimulator(std::size_t shards, std::size_t threads = 0);
    ParallelSimulator(const ParallelSimulator&) = delete;
    ParallelSimulator& operator=(const ParallelSimulator&) = delete;
    ~ParallelSimulator();

    std::size_t shard_count() const noexcept { return shards_.size(); }
    Simulator& shard(std::size_t i) { return shards_.at(i)->sim; }

    /// Registers a channel (both calls per duplex link). Channels must be
    /// registered before run_until and in deterministic construction order
    /// — the returned id is the cross-channel tie-break rank.
    std::uint32_t register_channel(BoundaryChannel* channel);

    /// Advances every shard to `deadline`, delivering all cross-shard
    /// traffic due by then. All shard clocks equal `deadline` on return.
    /// May be called repeatedly; in-flight boundary datagrams persist
    /// between calls, exactly like pending events in a plain Simulator. A
    /// deadline before now() does nothing, as in Simulator::run_until.
    void run_until(Time deadline);

    Time now() const noexcept { return now_; }

    /// Total events across shards. Cross-shard deliveries count once, in
    /// the destination shard, mirroring the sequential engine's one
    /// propagation event per in-flight packet.
    std::uint64_t events_processed() const;

    /// Windows run so far. Depends only on event times, so it is as
    /// deterministic as the simulation itself.
    std::uint64_t windows() const noexcept { return windows_; }

private:
    /// An in-channel's head arrival: (deliver time, index into `in`).
    using Head = std::pair<std::int64_t, std::uint32_t>;

    struct ShardState {
        Simulator sim;
        std::vector<BoundaryChannel*> in;  ///< ordered by channel id
        /// Min-heap of the in-channels' head arrivals, rebuilt each window
        /// in storage kept across windows.
        std::vector<Head> heads;
    };

    /// Runs shards k, k+workers, ... window by window until the deadline.
    void worker(std::size_t k, std::int64_t deadline_ns);

    /// Delivers `s`'s staged arrivals due by `end_ns`, then runs its local
    /// events to `end_ns`.
    static void run_window(ShardState& s, std::int64_t end_ns);

    std::vector<std::unique_ptr<ShardState>> shards_;
    std::size_t workers_;
    std::uint32_t channels_ = 0;
    std::int64_t lookahead_ns_;  ///< smallest registered; INT64_MAX when none
    Time now_;
    std::uint64_t windows_ = 0;
    /// A centralized barrier over the workers that yields for a while
    /// before it blocks. std::barrier sleeps after a few spins, and waking
    /// a sleeper twice a window made bench_parallel's 4-shard runs 30–90%
    /// slower.
    class Barrier {
    public:
        explicit Barrier(std::size_t workers) : workers_(workers) {}
        void arrive_and_wait();

    private:
        const std::size_t workers_;
        std::atomic<std::size_t> arrived_{0};
        std::atomic<std::uint32_t> phase_{0};
    };

    std::vector<std::int64_t> lows_;  ///< each worker's bound for the gvt reduction
    Barrier barrier_;
};

}  // namespace catenet::sim
