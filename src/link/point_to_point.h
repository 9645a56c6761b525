// A duplex point-to-point link with a configurable channel model per
// direction: transmission rate, propagation delay, random extra delay
// (jitter), packet loss, and bit-error corruption applied to the actual
// packet bytes. Satellite, packet-radio and serial-line presets are all
// parameterizations of this class (see presets.h).
#pragma once

#include <memory>
#include <string>

#include "link/netif.h"
#include "link/queue.h"
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
    std::size_t queue_capacity_packets = 64;

    /// Throws std::invalid_argument naming the first field out of range:
    /// bits_per_second > 0; 68 <= mtu <= 65535 (IPv4's smallest datagram
    /// every network must carry, and its largest); drop_probability and
    /// bit_error_rate in [0, 1]; propagation_delay and jitter >= 0. Queue
    /// capacity is DropTailQueue's to check. Every link constructor calls
    /// this, so a bad value fails where it is set, not as a divide by zero
    /// or a transfer that silently never completes.
    void validate() const;

    /// Time to clock `bytes` onto the wire at this rate. Exact 64-bit
    /// integer ceiling — a partial nanosecond still occupies the wire — so
    /// serialization delay is deterministic and precise at any rate (the
    /// old double round-trip truncated and lost low bits above ~4 Gb/s).
    /// No overflow: bytes*8e9 <= 65537*8e9 < 2^63 for any IP datagram.
    sim::Time transmission_time(std::size_t bytes) const {
        const auto bits = static_cast<std::uint64_t>(bytes) * 8u;
        const auto ns =
            (bits * 1'000'000'000ull + bits_per_second - 1) / bits_per_second;
        return sim::Time(static_cast<std::int64_t>(ns));
    }
};

class PointToPointLink {
public:
    /// Symmetric link.
    PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng, const LinkParams& params,
                     std::string name = "p2p");
    /// Asymmetric link (e.g. satellite down/up channels).
    PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng, const LinkParams& a_to_b,
                     const LinkParams& b_to_a, std::string name = "p2p");
    ~PointToPointLink();

    NetIf& port_a() noexcept;
    NetIf& port_b() noexcept;

    /// Takes the whole link up or down. Going down flushes queues and
    /// loses every packet in flight — a cut cable.
    void set_up(bool up);
    bool is_up() const noexcept { return up_; }

    const ChannelStats& stats_a_to_b() const noexcept;
    const ChannelStats& stats_b_to_a() const noexcept;

    /// Replaces the egress queue on one port (for fair-queuing/priority
    /// experiments). Must be called while the queue is empty.
    void set_queue_a(std::unique_ptr<PacketQueue> q);
    void set_queue_b(std::unique_ptr<PacketQueue> q);
    PacketQueue& queue_a() noexcept;
    PacketQueue& queue_b() noexcept;

private:
    class Port;

    util::Rng rng_;
    std::unique_ptr<Port> a_;
    std::unique_ptr<Port> b_;
    bool up_ = true;
};

}  // namespace catenet::link
