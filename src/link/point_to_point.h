// A duplex point-to-point link with a configurable channel model per
// direction: transmission rate, propagation delay, random extra delay
// (jitter), packet loss, and bit-error corruption applied to the actual
// packet bytes. Satellite, packet-radio and serial-line presets are all
// parameterizations of this class (see presets.h).
//
// In a sharded run a link may join two shards of a sim::ParallelSimulator
// (a *cut* link). Each port then runs on its own shard's simulator, and
// instead of scheduling a transmitted packet's delivery locally it
// appends the packet to its direction's outbox, a sim::BoundaryChannel
// that sim::ParallelSimulator stages between windows and delivers at
// exactly the computed arrival time. The link's latency is the channel's
// lookahead — the paper's argument that networks are coupled only by
// links with real latency, made load-bearing. Datagrams are
// self-contained (fate-sharing), so the hand-off moves nothing but the
// wire bytes and their checksum vouch.
//
// Each direction draws its loss, jitter and bit errors from a stream of
// its own: every constructor forks the link's stream off the parent and
// then port a's and port b's off that, in that order. A cut link and its
// uncut twin therefore draw the same values, and a cut link's two shards
// never share a stream.
#pragma once

#include <memory>
#include <string>

#include "link/netif.h"
#include "link/queue.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace catenet::link {

struct LinkParams {
    std::uint64_t bits_per_second = 10'000'000;
    sim::Time propagation_delay = sim::microseconds(100);
    sim::Time jitter;                 ///< extra delay, uniform in [0, jitter]
    double drop_probability = 0.0;    ///< whole-packet channel loss
    double bit_error_rate = 0.0;      ///< per-bit corruption probability
    std::size_t mtu = 1500;
    /// Each port's drop-tail admission limit. It reserves nothing: a port's
    /// ring grows only as deep as its backlog has been (DropTailQueue).
    std::size_t queue_capacity_packets = 64;

    /// Throws std::invalid_argument naming the first field out of range:
    /// bits_per_second > 0; 68 <= mtu <= 65535 (IPv4's smallest datagram
    /// every network must carry, and its largest); drop_probability and
    /// bit_error_rate in [0, 1]; propagation_delay and jitter >= 0. Queue
    /// capacity is DropTailQueue's to check. Every link constructor calls
    /// this, so a bad value fails where it is set, not as a divide by zero
    /// or a transfer that silently never completes.
    void validate() const;

    /// Time to clock `bytes` onto the wire at this rate: the exact integer
    /// ceiling of serialization_time (netif.h), which LANs share.
    sim::Time transmission_time(std::size_t bytes) const {
        return serialization_time(bytes, bits_per_second);
    }

    /// The least time between a send and its delivery: propagation plus
    /// clocking one byte. transmission_time's ceiling makes it >= 1 ns at
    /// any rate, so it is strictly positive — the sharded engine's
    /// lookahead on a cut link (a boundary channel's window bound) and the
    /// partitioner's edge weight, from this one definition.
    sim::Time lookahead() const { return propagation_delay + transmission_time(1); }
};

class PointToPointLink {
public:
    /// Symmetric link.
    PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng, const LinkParams& params,
                     std::string name = "p2p");
    /// Asymmetric link (e.g. satellite down/up channels).
    PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng, const LinkParams& a_to_b,
                     const LinkParams& b_to_a, std::string name = "p2p");
    /// A symmetric cut link between two different shards of `psim` (it
    /// throws std::invalid_argument if `shard_a == shard_b`). It registers
    /// its outboxes with `psim`, a to b first (registration order is its
    /// cross-channel tie-break rank). Like the constructors above it forks
    /// exactly one child off `parent_rng`, so where the cut falls does not
    /// shift the parent's stream for later topology elements.
    PointToPointLink(sim::ParallelSimulator& psim, std::uint32_t shard_a,
                     std::uint32_t shard_b, util::Rng& parent_rng, const LinkParams& params,
                     std::string name = "p2p");
    ~PointToPointLink();

    NetIf& port_a() noexcept;
    NetIf& port_b() noexcept;

    /// Takes the whole link up or down. Going down flushes both queues
    /// (each packet counted in its queue's stats().flushed, its buffer
    /// back in its port's pool) and loses every packet in flight — a cut
    /// cable. A cut link may change state only between
    /// ParallelSimulator::run_until calls: both shards read the flag while
    /// a window runs.
    void set_up(bool up);
    bool is_up() const noexcept { return up_; }

    /// Channel-model outcomes per direction: losses and corruption drawn
    /// at transmission, and packets that arrived while the link or the
    /// receiving end was down. The sending port's shard counts the draws
    /// and the shard that runs an arrival counts its loss; on a cut link
    /// both may add to packets_lost in one window, so the loss count is a
    /// relaxed atomic add. Read them between run_until calls.
    const ChannelStats& stats_a_to_b() const noexcept;
    const ChannelStats& stats_b_to_a() const noexcept;

    /// Replaces the egress queue on one port (for fair-queuing/priority
    /// experiments). Must be called while the queue is empty.
    void set_queue_a(std::unique_ptr<PacketQueue> q);
    void set_queue_b(std::unique_ptr<PacketQueue> q);
    /// Each port's egress queue. On a cut link only the shard that owns
    /// the port may touch it while the engine runs.
    PacketQueue& queue_a() noexcept;
    PacketQueue& queue_b() noexcept;

private:
    class Port;
    class Channel;

    std::unique_ptr<Channel> ab_;  ///< a cut link's outboxes; null on one shard
    std::unique_ptr<Channel> ba_;
    std::unique_ptr<Port> a_;
    std::unique_ptr<Port> b_;
    bool up_ = true;
};

}  // namespace catenet::link
