// A shared broadcast LAN (Ethernet-like bus). One frame occupies the
// medium at a time; stations queue behind it. Frames carry a two-byte
// link-layer destination (port index, or 0xffff broadcast) prepended to
// the payload — the minimal "local network header" the paper's gateways
// must add and strip per attached network. Next-hop IP addresses are
// resolved to ports through a static neighbor table (ARP's steady state).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "link/netif.h"
#include "link/queue.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace catenet::link {

struct LanParams {
    std::uint64_t bits_per_second = 10'000'000;
    sim::Time propagation_delay = sim::microseconds(5);
    double drop_probability = 0.0;
    std::size_t mtu = 1500;
    /// Each station's drop-tail admission limit. It reserves nothing: a
    /// station's ring grows only as deep as its backlog has been.
    std::size_t queue_capacity_packets = 64;

    /// LinkParams::validate's rules for the fields a LAN shares with a
    /// link (bits_per_second, mtu, drop_probability, propagation_delay),
    /// with the same std::invalid_argument naming the field (defined beside
    /// it, in point_to_point.cc). Lan's constructor calls it.
    void validate() const;
};

class Lan {
public:
    static constexpr std::uint16_t kBroadcastPort = 0xffff;

    Lan(sim::Simulator& sim, util::Rng& parent_rng, const LanParams& params,
        std::string name = "lan");
    ~Lan();

    /// Creates a new station attachment. The returned interface is owned
    /// by the Lan and valid for its lifetime.
    NetIf& add_port();

    std::size_t port_count() const noexcept;

    /// Registers `addr` as reachable at `port_index` (static ARP entry).
    /// The builder calls this for every address bound to a LAN port.
    void register_address(util::Ipv4Address addr, std::size_t port_index);

    /// Whole-segment failure: everything queued or in flight is lost.
    /// Each station's queue counts its packets as flushed and returns
    /// their buffers to the simulator's pool.
    void set_up(bool up);
    bool is_up() const noexcept { return up_; }

    const ChannelStats& channel_stats() const noexcept { return channel_stats_; }

    /// The egress queue of the station at `port_index` (throws
    /// std::out_of_range for no such port).
    const PacketQueue& queue(std::size_t port_index) const;

    /// Aggregate frame bytes handed to the medium by all stations.
    std::uint64_t total_bytes_sent() const noexcept;

private:
    class Port;

    void transmit_from(std::size_t port_index);
    void medium_idle();
    void deliver_frame(std::size_t src_port, Packet frame);

    sim::Simulator& sim_;
    util::Rng rng_;
    LanParams params_;
    std::string name_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::unordered_map<util::Ipv4Address, std::size_t> neighbors_;
    std::vector<std::size_t> backlog_;  // ports waiting for the medium, FIFO
    bool medium_busy_ = false;
    bool up_ = true;
    ChannelStats channel_stats_;
};

}  // namespace catenet::link
