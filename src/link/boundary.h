// A duplex point-to-point link whose two ends live in different shards of
// a ParallelSimulator. Each direction is a BoundaryChannel: the sending
// port runs link::Transmitter, the transmitter PointToPointLink's ports run
// (egress queue, busy-until wire, single combined serialize+propagate
// delay), but instead of scheduling the delivery event locally it
// timestamps the datagram and hands it to an SPSC ring; the destination
// shard's driver injects it at exactly the computed arrival time. The link's
// propagation + serialization delay is the channel's lookahead — the
// paper's own argument that networks are coupled only by links with real
// latency, made load-bearing.
//
// Datagrams are self-contained (fate-sharing: no connection state in the
// network), so the handoff moves nothing but the wire bytes and trace
// metadata. Buffer capacity flows back against the packet stream via the
// ring's swap protocol (see util/spsc_ring.h), keeping a one-way flow
// allocation-free in steady state on both shards.
//
// Channel-model randomness (drop, jitter, corruption) draws from one Rng
// per direction, forked at construction — each is owned by exactly one
// shard thread. A boundary link with a deterministic channel (no loss,
// no jitter, no bit errors) is behaviourally identical to the sequential
// PointToPointLink; with randomness enabled the parallel run is still
// deterministic against itself, but the draw interleaving across the two
// directions differs from the single-Rng sequential link, so equality
// tests keep lossy channels inside shards.
#pragma once

#include <memory>
#include <string>

#include "link/netif.h"
#include "link/point_to_point.h"
#include "link/queue.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace catenet::link {

class BoundaryLink {
public:
    /// Symmetric link between shard `shard_a` (simulator `sim_a`) and
    /// shard `shard_b`. Forks exactly one child off `parent_rng`, like
    /// PointToPointLink, so swapping link types does not shift the
    /// parent's stream for later topology elements.
    BoundaryLink(sim::Simulator& sim_a, std::uint32_t shard_a, sim::Simulator& sim_b,
                 std::uint32_t shard_b, util::Rng& parent_rng, const LinkParams& params,
                 std::string name = "boundary");
    /// Asymmetric variant.
    BoundaryLink(sim::Simulator& sim_a, std::uint32_t shard_a, sim::Simulator& sim_b,
                 std::uint32_t shard_b, util::Rng& parent_rng, const LinkParams& a_to_b,
                 const LinkParams& b_to_a, std::string name = "boundary");
    ~BoundaryLink();

    NetIf& port_a() noexcept;
    NetIf& port_b() noexcept;

    /// The two synchronization surfaces; register both with the
    /// ParallelSimulator that owns the shards.
    sim::BoundaryChannel& channel_a_to_b() noexcept;
    sim::BoundaryChannel& channel_b_to_a() noexcept;

    const ChannelStats& stats_a_to_b() const noexcept;
    const ChannelStats& stats_b_to_a() const noexcept;

    /// Each port's egress queue. Only the shard that owns the port may
    /// touch it while the engine runs.
    PacketQueue& queue_a() noexcept;
    PacketQueue& queue_b() noexcept;

    /// Bytes clocked onto the wire in both directions (cost metrics).
    std::uint64_t total_bytes_sent() const noexcept;

private:
    class Port;
    class Channel;

    std::unique_ptr<Channel> ab_;
    std::unique_ptr<Channel> ba_;
    std::unique_ptr<Port> a_;
    std::unique_ptr<Port> b_;
};

}  // namespace catenet::link
