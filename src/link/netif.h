// The attachment point between a node and a network. The IP layer talks
// only to this interface, which is exactly the paper's goal-3 discipline:
// the internet layer may assume a network can carry a packet of reasonable
// size with nonzero probability and nothing else — no reliability, no
// ordering, no broadcast.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "link/packet.h"
#include "util/ip_address.h"

namespace catenet::link {

/// Channel-model outcomes (loss, corruption) on a link or LAN segment.
struct ChannelStats {
    std::uint64_t packets_lost = 0;       ///< dropped by the channel model
    std::uint64_t packets_corrupted = 0;  ///< delivered with flipped bits
};

struct NetIfStats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t send_failures = 0;  // down interface or unresolvable next hop
    std::uint64_t busy_ns = 0;  // time the transmitter spent clocking bits out
};

class NetIf {
public:
    // The packet is handed up by rvalue reference so the four-deep delivery
    // chain (channel event → port → deliver → IP receive) moves the Packet
    // once, at the end, instead of at every by-value hand-off. Lambdas that
    // take `Packet` by value still bind — the move happens at their call.
    using Receiver = std::function<void(Packet&&)>;

    virtual ~NetIf() = default;

    /// Largest payload this network carries in one frame.
    virtual std::size_t mtu() const noexcept = 0;

    /// Hands a packet to the network for delivery toward `next_hop` (the
    /// link-layer resolves it; point-to-point links ignore it). Best
    /// effort: the packet may be queued, dropped, corrupted or reordered
    /// downstream and the caller will never know — by design.
    virtual void send(Packet packet, util::Ipv4Address next_hop) = 0;

    virtual const std::string& name() const noexcept = 0;

    /// Installs the upward hand-off (IpStack::add_interface; tests tap
    /// interfaces by replacing it).
    void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

    /// Administrative / failure state. A down interface silently discards
    /// traffic in both directions (a dead transceiver).
    bool is_up() const noexcept { return up_; }
    virtual void set_up(bool up) {
        if (up_ == up) return;
        up_ = up;
        for (const auto& observer : state_observers_) observer(up);
    }

    /// Registers a carrier-state observer (routing protocols react to
    /// interface death immediately rather than waiting for timeouts).
    void add_state_observer(std::function<void(bool up)> observer) {
        state_observers_.push_back(std::move(observer));
    }

    /// Observer for egress-queue drops: the node that owns the interface
    /// sees which datagram it just threw away (Source Quench hooks here —
    /// the one piece of feedback a 1988 gateway could give).
    using DropObserver = std::function<void(const Packet&)>;
    void set_drop_observer(DropObserver observer) { drop_observer_ = std::move(observer); }

    /// Passive wire tap for equivalence tests: observes (digest, size) of
    /// every packet this interface delivers up its stack, in delivery
    /// order, leaving the installed receiver in place (unlike
    /// set_receiver). The digest is FNV-1a over the wire bytes, so two
    /// runs whose digest streams match delivered byte-identical wire
    /// streams in the same order.
    using WireTap = std::function<void(std::uint64_t digest, std::uint32_t size)>;
    void set_wire_tap(WireTap tap) { wire_tap_ = std::move(tap); }

    /// FNV-1a over a byte range (the wire tap's digest function).
    static std::uint64_t wire_digest(std::span<const std::uint8_t> bytes) noexcept {
        std::uint64_t h = 1469598103934665603ull;
        for (const std::uint8_t b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
        return h;
    }

    const NetIfStats& stats() const noexcept { return stats_; }

    /// The IP address bound to this interface (assigned by the builder).
    util::Ipv4Address address() const noexcept { return address_; }
    void set_address(util::Ipv4Address addr) noexcept { address_ = addr; }

protected:
    void deliver(Packet&& packet) {
        if (!up_ || !receiver_) return;
        ++stats_.packets_received;
        stats_.bytes_received += packet.size();
        if (wire_tap_) {
            wire_tap_(wire_digest(packet.bytes),
                      static_cast<std::uint32_t>(packet.size()));
        }
        receiver_(std::move(packet));
    }

    void notify_drop(const Packet& packet) {
        if (drop_observer_) drop_observer_(packet);
    }

    Receiver receiver_;
    DropObserver drop_observer_;
    WireTap wire_tap_;
    std::vector<std::function<void(bool)>> state_observers_;
    NetIfStats stats_;
    bool up_ = true;
    util::Ipv4Address address_;
};

}  // namespace catenet::link
