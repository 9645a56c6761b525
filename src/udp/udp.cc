#include "udp/udp.h"

#include <stdexcept>

#include "ip/protocols.h"
#include "util/checksum.h"

namespace catenet::udp {

util::ByteBuffer encode_udp(const UdpHeader& header, util::Ipv4Address src,
                            util::Ipv4Address dst, std::span<const std::uint8_t> payload) {
    const std::size_t total = kUdpHeaderSize + payload.size();
    if (total > 0xffff) throw std::length_error("UDP datagram too large");
    util::BufferWriter w(total);
    w.put_u16(header.src_port);
    w.put_u16(header.dst_port);
    w.put_u16(static_cast<std::uint16_t>(total));
    w.put_u16(0);  // checksum placeholder
    w.put_bytes(payload);
    std::uint16_t checksum = util::transport_checksum(src, dst, ip::kProtoUdp, w.data());
    if (checksum == 0) checksum = 0xffff;  // RFC 768: 0 means "no checksum"
    w.patch_u16(6, checksum);
    return w.take();
}

std::optional<UdpHeader> decode_udp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out) {
    if (segment.size() < kUdpHeaderSize) return std::nullopt;
    util::BufferReader r(segment);
    UdpHeader h;
    h.src_port = r.get_u16();
    h.dst_port = r.get_u16();
    const std::uint16_t length = r.get_u16();
    const std::uint16_t checksum = r.get_u16();
    if (length < kUdpHeaderSize || length > segment.size()) return std::nullopt;
    if (checksum != 0) {
        if (util::transport_checksum(src, dst, ip::kProtoUdp, segment.subspan(0, length)) != 0) {
            return std::nullopt;
        }
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
    const auto segment = encode_udp(h, src, dst, payload);
    ip::SendOptions opts;
    opts.tos = tos_;
    opts.source = src;
    const bool ok = stack_->ip().send(ip::kProtoUdp, dst, segment, opts);
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
    auto h = decode_udp(header.src, header.dst, payload, data);
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
