// RFC 768 UDP: the thin datagram transport whose very existence is the
// paper's goal-2 argument — once reliability moved out of the internet
// layer into TCP, applications that do not want reliability (voice, the
// XNET debugger) needed a transport that adds only ports and a checksum.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "ip/ip_stack.h"

namespace catenet::udp {

inline constexpr std::size_t kUdpHeaderSize = 8;

struct UdpHeader {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
};

/// Serializes a UDP segment with the RFC 768 pseudo-header checksum.
util::ByteBuffer encode_udp(const UdpHeader& header, util::Ipv4Address src,
                            util::Ipv4Address dst, std::span<const std::uint8_t> payload);

/// Decodes and checksum-verifies. Returns nullopt on bad checksum or
/// malformed length. `verify_checksum = false` skips the RFC 1071 pass, as
/// for decode_tcp: for datagrams whose link::Packet::csum_ok flag vouches
/// that the encoder-computed checksum is untouched.
std::optional<UdpHeader> decode_udp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out,
                                    bool verify_checksum = true);

struct UdpStats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t dropped_bad_checksum = 0;
    std::uint64_t dropped_no_socket = 0;
};

class UdpStack;

/// An unreliable datagram endpoint. Destroying the socket unbinds it.
class UdpSocket {
public:
    /// (source address, source port, payload)
    using DatagramHandler = std::function<void(
        util::Ipv4Address, std::uint16_t, std::span<const std::uint8_t>)>;

    ~UdpSocket();
    UdpSocket(const UdpSocket&) = delete;
    UdpSocket& operator=(const UdpSocket&) = delete;

    std::uint16_t local_port() const noexcept { return port_; }
    void set_handler(DatagramHandler handler) { handler_ = std::move(handler); }

    /// Type-of-service bits stamped on outbound datagrams (goal 2).
    void set_tos(std::uint8_t tos) noexcept { tos_ = tos; }

    /// Sends one datagram. Returns false when IP had no route.
    bool send_to(util::Ipv4Address dst, std::uint16_t dst_port,
                 std::span<const std::uint8_t> payload);

private:
    friend class UdpStack;
    UdpSocket(UdpStack& stack, std::uint16_t port) : stack_(&stack), port_(port) {}

    UdpStack* stack_;
    std::uint16_t port_;
    std::uint8_t tos_ = 0;
    DatagramHandler handler_;
};

/// Per-host UDP demultiplexer, registered with the IP stack on creation.
class UdpStack {
public:
    explicit UdpStack(ip::IpStack& ip);
    UdpStack(const UdpStack&) = delete;
    UdpStack& operator=(const UdpStack&) = delete;

    /// Binds a specific port; throws std::invalid_argument if taken.
    std::unique_ptr<UdpSocket> bind(std::uint16_t port);

    /// Binds an ephemeral port.
    std::unique_ptr<UdpSocket> bind_ephemeral();

    /// Statistics view, synthesized from the counter block (the single
    /// storage, as for ip::IpStack::stats()).
    UdpStats stats() const noexcept {
        using telemetry::Counter;
        UdpStats s;
        s.datagrams_sent = counters_.get(Counter::UdpTx);
        s.datagrams_received = counters_.get(Counter::UdpRx);
        s.dropped_bad_checksum = counters_.get(Counter::UdpDropChecksum);
        s.dropped_no_socket = counters_.get(Counter::UdpDropNoSocket);
        return s;
    }
    /// This stack's UDP counter slots.
    const telemetry::CounterBlock& counters() const noexcept { return counters_; }
    ip::IpStack& ip() noexcept { return ip_; }

private:
    friend class UdpSocket;
    void on_datagram(const ip::Ipv4Header& header, std::span<const std::uint8_t> payload);
    void unbind(std::uint16_t port) { sockets_.erase(port); }

    ip::IpStack& ip_;
    std::map<std::uint16_t, UdpSocket*> sockets_;
    telemetry::CounterBlock counters_;
    std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace catenet::udp
