#include "udp/udp.h"

#include <stdexcept>

#include "ip/protocols.h"
#include "util/checksum.h"

namespace catenet::udp {

namespace {

// Appends the segment [header | payload] to `out`, behind whatever `out`
// already holds, and patches in the RFC 768 pseudo-header checksum. The
// one encoder body: encode_udp starts from an empty buffer, send_to from
// IP headroom.
void append_udp(util::ByteBuffer& out, const UdpHeader& header, util::Ipv4Address src,
                util::Ipv4Address dst, std::span<const std::uint8_t> payload) {
    const std::size_t total = kUdpHeaderSize + payload.size();
    if (total > 0xffff) throw std::length_error("UDP datagram too large");
    const std::size_t at = out.size();
    out.resize(at + kUdpHeaderSize);
    out.insert(out.end(), payload.begin(), payload.end());
    std::uint8_t* p = out.data() + at;
    util::store_be16(p, header.src_port);
    util::store_be16(p + 2, header.dst_port);
    util::store_be16(p + 4, static_cast<std::uint16_t>(total));
    util::store_be16(p + 6, 0);  // checksum placeholder
    std::uint16_t checksum = util::transport_checksum(src, dst, ip::kProtoUdp, {p, total});
    if (checksum == 0) checksum = 0xffff;  // RFC 768: 0 means "no checksum"
    util::store_be16(p + 6, checksum);
}

}  // namespace

util::ByteBuffer encode_udp(const UdpHeader& header, util::Ipv4Address src,
                            util::Ipv4Address dst, std::span<const std::uint8_t> payload) {
    util::ByteBuffer out;
    out.reserve(kUdpHeaderSize + payload.size());
    append_udp(out, header, src, dst, payload);
    return out;
}

std::optional<UdpHeader> decode_udp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out,
                                    bool verify_checksum) {
    if (segment.size() < kUdpHeaderSize) return std::nullopt;
    util::BufferReader r(segment);
    UdpHeader h;
    h.src_port = r.get_u16();
    h.dst_port = r.get_u16();
    const std::uint16_t length = r.get_u16();
    const std::uint16_t checksum = r.get_u16();
    if (length < kUdpHeaderSize || length > segment.size()) return std::nullopt;
    if (verify_checksum && checksum != 0 &&
        util::transport_checksum(src, dst, ip::kProtoUdp, segment.subspan(0, length)) != 0) {
        return std::nullopt;
    }
    payload_out = segment.subspan(kUdpHeaderSize, length - kUdpHeaderSize);
    return h;
}

UdpSocket::~UdpSocket() {
    if (stack_ != nullptr) stack_->unbind(port_);
}

bool UdpSocket::send_to(util::Ipv4Address dst, std::uint16_t dst_port,
                        std::span<const std::uint8_t> payload) {
    // Resolve the source address the datagram will carry: the egress
    // interface's address, which IP picks; we use the primary address in
    // the checksum. To keep the checksum consistent with the header IP
    // writes, pin the source explicitly.
    const util::Ipv4Address src = stack_->ip().primary_address();
    UdpHeader h;
    h.src_port = port_;
    h.dst_port = dst_port;
    // One pooled buffer start to finish, as for a TCP segment: the segment
    // is laid out behind kIpv4HeaderSize bytes of headroom, IP writes its
    // header over them, and the link takes the buffer. The checksum just
    // computed is what send_with_headroom's checksum vouch requires.
    util::ByteBuffer wire = stack_->ip().simulator().buffer_pool().acquire(
        ip::kIpv4HeaderSize + kUdpHeaderSize + payload.size());
    wire.resize(ip::kIpv4HeaderSize);
    append_udp(wire, h, src, dst, payload);
    ip::SendOptions opts;
    opts.tos = tos_;
    opts.source = src;
    const bool ok =
        stack_->ip().send_with_headroom(ip::kProtoUdp, dst, std::move(wire), opts);
    if (ok) {
        stack_->counters_.inc(telemetry::Counter::UdpTx);
    }
    return ok;
}

UdpStack::UdpStack(ip::IpStack& ip) : ip_(ip) {
    ip_.register_protocol(
        ip::kProtoUdp,
        [this](const ip::Ipv4Header& h, std::span<const std::uint8_t> p, std::size_t) {
            on_datagram(h, p);
        });
}

std::unique_ptr<UdpSocket> UdpStack::bind(std::uint16_t port) {
    if (sockets_.contains(port)) {
        throw std::invalid_argument("UDP port already bound: " + std::to_string(port));
    }
    auto socket = std::unique_ptr<UdpSocket>(new UdpSocket(*this, port));
    sockets_[port] = socket.get();
    return socket;
}

std::unique_ptr<UdpSocket> UdpStack::bind_ephemeral() {
    for (int attempts = 0; attempts < 0xffff; ++attempts) {
        const std::uint16_t candidate = next_ephemeral_;
        next_ephemeral_ = candidate == 0xffff ? 49152 : candidate + 1;
        if (!sockets_.contains(candidate)) return bind(candidate);
    }
    throw std::runtime_error("no free UDP ephemeral ports");
}

void UdpStack::on_datagram(const ip::Ipv4Header& header,
                           std::span<const std::uint8_t> payload) {
    std::span<const std::uint8_t> data;
    // The fold is skipped when IP vouches for this datagram (csum_ok end to
    // end): it would provably pass.
    auto h = decode_udp(header.src, header.dst, payload, data, !ip_.rx_csum_ok());
    if (!h) {
        counters_.inc(telemetry::Counter::UdpDropChecksum);
        return;
    }
    auto it = sockets_.find(h->dst_port);
    if (it == sockets_.end()) {
        counters_.inc(telemetry::Counter::UdpDropNoSocket);
        return;
    }
    counters_.inc(telemetry::Counter::UdpRx);
    if (it->second->handler_) {
        it->second->handler_(header.src, h->src_port, data);
    }
}

}  // namespace catenet::udp
