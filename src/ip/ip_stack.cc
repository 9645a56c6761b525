#include "ip/ip_stack.h"

#include <algorithm>
#include <bit>

#include "ip/protocols.h"
#include "util/logging.h"

namespace catenet::ip {

namespace {
const util::Logger kLog("ip");

inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
    return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}

inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
}  // namespace

IpStack::IpStack(sim::Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), reassembler_(sim) {
    reassembler_.set_counters(&counters_);
}

std::size_t IpStack::add_interface(link::NetIf& netif, util::Ipv4Address addr,
                                   util::Ipv4Prefix subnet) {
    const std::size_t ifindex = interfaces_.size();
    interfaces_.push_back(Interface{&netif, addr, subnet, netif.mtu()});
    local_addrs_.push_back(addr.value());
    min_mtu_ = std::min(min_mtu_, interfaces_.back().mtu);
    netif.set_address(addr);
    netif.set_receiver([this, ifindex](link::Packet&& packet) {
        receive(ifindex, std::move(packet));
    });
    Route connected;
    connected.prefix = subnet;
    connected.ifindex = ifindex;
    connected.origin = "connected";
    routes_.install(connected);
    return ifindex;
}

util::Ipv4Address IpStack::primary_address() const {
    return interfaces_.empty() ? util::Ipv4Address{} : interfaces_.front().address;
}

void IpStack::set_down(bool down) {
    down_ = down;
    if (down) {
        reassembler_.clear();
    }
    for (auto& iface : interfaces_) {
        iface.netif->set_up(!down);
    }
}

void IpStack::flush_routes() {
    // Keep connected routes (re-derived from hardware); drop the rest.
    // Every remove bumps the table generation, so the route cache is
    // implicitly flushed with it.
    auto snapshot = routes_.routes();
    for (const auto& r : snapshot) {
        if (r.origin != "connected") routes_.remove(r.prefix);
    }
}

void IpStack::register_protocol(std::uint8_t protocol, ProtocolHandler handler) {
    ProtocolHandler& slot = protocols_[protocol];
    slot = std::move(handler);
    // Map nodes never move, so the receive quick lane can keep a pointer.
    if (protocol == kProtoTcp) tcp_handler_ = &slot;
}

const Route* IpStack::lookup_route(util::Ipv4Address dst) {
    static_assert((kRouteCacheSets & (kRouteCacheSets - 1)) == 0);
    const std::size_t set = route_cache_set(dst);
    const std::uint64_t generation = routes_.generation();
    RouteCacheEntry* ways = &route_cache_[set * kRouteCacheWays];
    for (std::size_t w = 0; w < kRouteCacheWays; ++w) {
        if (ways[w].generation == generation && ways[w].dst == dst) {
            counters_.inc(telemetry::Counter::IpRouteCacheHit);
            return ways[w].route;
        }
    }
    // Miss: one real LPM refills a way. Negative results are cached too
    // (route == nullptr) — a gateway being flooded with unroutable
    // datagrams is exactly when the table scan hurts most. Victim: the
    // first stale way (it can never hit again under this generation),
    // falling back to the set's round-robin cursor.
    counters_.inc(telemetry::Counter::IpRouteCacheMiss);
    std::size_t victim = kRouteCacheWays;
    for (std::size_t w = 0; w < kRouteCacheWays; ++w) {
        if (ways[w].generation != generation) {
            victim = w;
            break;
        }
    }
    if (victim == kRouteCacheWays) {
        victim = route_cache_rr_[set];
        route_cache_rr_[set] =
            static_cast<std::uint8_t>((victim + 1) % kRouteCacheWays);
    }
    RouteCacheEntry& slot = ways[victim];
    slot.dst = dst;
    slot.route = routes_.lookup(dst).get();
    slot.generation = generation;
    return slot.route;
}

bool IpStack::send(std::uint8_t protocol, util::Ipv4Address dst,
                   std::span<const std::uint8_t> payload, const SendOptions& options) {
    if (down_) return false;

    // Local loopback: deliver without touching any interface.
    if (is_local_address(dst)) {
        Ipv4Header h;
        h.protocol = protocol;
        h.tos = options.tos;
        h.ttl = options.ttl;
        h.src = options.source.is_unspecified() ? dst : options.source;
        h.dst = dst;
        counters_.inc(telemetry::Counter::IpTx);
        auto data = util::to_buffer(payload);
        sim_.schedule_after(sim::Time(0), [this, h, data = std::move(data)] {
            deliver_local(h, data, 0);
        });
        return true;
    }

    const Route* route = lookup_route(dst);
    if (route == nullptr) {
        counters_.inc(telemetry::Counter::IpDropNoRoute);
        return false;
    }
    Ipv4Header header;
    header.protocol = protocol;
    header.tos = options.tos;
    header.ttl = options.ttl;
    header.dont_fragment = options.dont_fragment;
    header.identification = next_identification_++;
    header.src = options.source.is_unspecified()
                     ? interfaces_.at(route->ifindex).address
                     : options.source;
    header.dst = dst;
    counters_.inc(telemetry::Counter::IpTx);
    note(telemetry::PacketEvent::Tx, header, kIpv4HeaderSize + payload.size());
    return transmit(header, payload, *route);
}

bool IpStack::send_with_headroom(std::uint8_t protocol, util::Ipv4Address dst,
                                 util::ByteBuffer&& wire, const SendOptions& options) {
    const std::span<const std::uint8_t> payload =
        std::span<const std::uint8_t>(wire).subspan(
            std::min(wire.size(), kIpv4HeaderSize));

    // Loopback and fragmentation both need the payload as a plain span, so
    // they reuse the copying machinery; only the fits-the-MTU unicast case
    // below earns the in-place rewrite, and that is the entire hot path.
    if (down_ || is_local_address(dst)) {
        const bool ok = send(protocol, dst, payload, options);
        sim_.buffer_pool().recycle(std::move(wire));
        return ok;
    }

    const Route* route = lookup_route(dst);
    if (route == nullptr) {
        counters_.inc(telemetry::Counter::IpDropNoRoute);
        sim_.buffer_pool().recycle(std::move(wire));
        return false;
    }
    auto& iface = interfaces_.at(route->ifindex);
    Ipv4Header header;
    header.protocol = protocol;
    header.tos = options.tos;
    header.ttl = options.ttl;
    header.dont_fragment = options.dont_fragment;
    header.identification = next_identification_++;
    header.src = options.source.is_unspecified() ? iface.address : options.source;
    header.dst = dst;

    counters_.inc(telemetry::Counter::IpTx);
    note(telemetry::PacketEvent::Tx, header, wire.size());
    if (!iface.netif->is_up()) {
        counters_.inc(telemetry::Counter::IpDropIfaceDown);
        sim_.buffer_pool().recycle(std::move(wire));
        return false;
    }
    if (wire.size() > iface.netif->mtu()) {
        // Must fragment: per-fragment encodes, then retire the big buffer.
        const bool ok = header.dont_fragment ? false : transmit(header, payload, *route);
        sim_.buffer_pool().recycle(std::move(wire));
        return ok;
    }

    write_ipv4_header(wire, header, wire.size());
    const util::Ipv4Address next_hop =
        route->next_hop.is_unspecified() ? dst : route->next_hop;
    link::Packet packet = link::make_packet(std::move(wire), sim_);
    // Both checksums are known good here: the caller computed the transport
    // fold and write_ipv4_header just computed the header's.
    packet.csum_ok = true;
    iface.netif->send(std::move(packet), next_hop);
    return true;
}

void IpStack::set_source_quench(bool on, sim::Time min_interval) {
    source_quench_ = on;
    quench_min_interval_ = min_interval;
    if (!on) return;
    for (std::size_t i = 0; i < interfaces_.size(); ++i) {
        interfaces_[i].netif->set_drop_observer([this](const link::Packet& packet) {
            if (!source_quench_ || down_) return;
            // Rate limit: congestion produces drop storms; one quench per
            // interval is signal enough (RFC 1122 §3.2.2.3 allows this).
            const sim::Time now = sim_.now();
            if (last_quench_ > sim::Time(0) &&
                now - last_quench_ < quench_min_interval_) {
                return;
            }
            last_quench_ = now;
            send_icmp_error(IcmpType::SourceQuench, 0, packet.bytes);
            counters_.inc(telemetry::Counter::IpSourceQuenchSent);
        });
    }
}

bool IpStack::send_broadcast(std::uint8_t protocol, std::size_t ifindex,
                             std::span<const std::uint8_t> payload,
                             const SendOptions& options) {
    if (down_ || ifindex >= interfaces_.size()) return false;
    auto& iface = interfaces_[ifindex];
    if (!iface.netif->is_up()) {
        counters_.inc(telemetry::Counter::IpDropIfaceDown);
        return false;
    }
    Ipv4Header header;
    header.protocol = protocol;
    header.tos = options.tos;
    header.ttl = 1;
    header.identification = next_identification_++;
    header.src = iface.address;
    header.dst = kBroadcastAddress;
    counters_.inc(telemetry::Counter::IpTx);
    auto wire = encode_datagram(header, payload, sim_.buffer_pool());
    iface.netif->send(link::make_packet(std::move(wire), sim_), util::Ipv4Address{});
    return true;
}

bool IpStack::ping(util::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                   util::ByteBuffer data, std::uint8_t ttl) {
    const auto msg = IcmpMessage::echo_request(id, seq, std::move(data));
    auto wire = encode_icmp(msg, sim_.buffer_pool());
    SendOptions opts;
    opts.ttl = ttl;
    const bool ok = send(kProtoIcmp, dst, wire, opts);
    sim_.buffer_pool().recycle(std::move(wire));
    return ok;
}

// Fragments (if permitted and necessary) and hands wire datagrams to the
// egress interface. Host-side only in steady state: forwarded datagrams
// that fit the egress MTU bypass this entirely (see forward()'s fast path).
bool IpStack::transmit(const Ipv4Header& header, std::span<const std::uint8_t> payload,
                       const Route& route) {
    auto& iface = interfaces_.at(route.ifindex);
    if (!iface.netif->is_up()) {
        counters_.inc(telemetry::Counter::IpDropIfaceDown);
        return false;
    }
    const util::Ipv4Address next_hop =
        route.next_hop.is_unspecified() ? header.dst : route.next_hop;
    const std::size_t mtu = iface.netif->mtu();

    if (kIpv4HeaderSize + payload.size() <= mtu) {
        auto wire = encode_datagram(header, payload, sim_.buffer_pool());
        iface.netif->send(link::make_packet(std::move(wire), sim_), next_hop);
        return true;
    }

    if (header.dont_fragment) {
        // Cannot fragment: report back (only meaningful when forwarding;
        // locally we just fail the send).
        return false;
    }

    // Fragment: payload chunks of the largest multiple of 8 that fits.
    const std::size_t chunk = ((mtu - kIpv4HeaderSize) / 8) * 8;
    if (chunk == 0) return false;
    const std::size_t base_offset = header.payload_offset_bytes();
    for (std::size_t pos = 0; pos < payload.size(); pos += chunk) {
        const std::size_t len = std::min(chunk, payload.size() - pos);
        Ipv4Header frag = header;
        frag.fragment_offset = static_cast<std::uint16_t>((base_offset + pos) / 8);
        frag.more_fragments = header.more_fragments || (pos + len < payload.size());
        auto wire = encode_datagram(frag, payload.subspan(pos, len), sim_.buffer_pool());
        counters_.inc(telemetry::Counter::IpFragsCreated);
        iface.netif->send(link::make_packet(std::move(wire), sim_), next_hop);
    }
    return true;
}

void IpStack::receive(std::size_t ifindex, link::Packet packet) {
    if (down_) {
        recycle_wire(packet);
        return;
    }
    counters_.inc(telemetry::Counter::IpRx);

    // Quick lanes. With no tracer or recorder attached, the only header
    // fields a checksum-vouched datagram feeds downstream are src, dst,
    // protocol, TTL, DF and total length — every other field exists to
    // feed note(), which both observers being absent makes a no-op. Four
    // loads screen for the common shape (fixed 20-byte header, not a
    // fragment, total length == wire length), and only the fields the
    // lane's consumer reads are unpacked (DESIGN.md §13).
    if (!trace_ && recorder_ == nullptr && packet.csum_ok &&
        packet.bytes.size() >= kIpv4HeaderSize && packet.bytes[0] == 0x45 &&
        (load_u16(packet.bytes.data() + 6) & 0x3fffu) == 0 &&
        load_u16(packet.bytes.data() + 2) == packet.bytes.size()) {
        const std::uint8_t* p = packet.bytes.data();
        const util::Ipv4Address dst(load_u32(p + 16));
        if (is_local_address(dst)) {
            // Local lane: a TCP segment for this host goes straight to the
            // handler TCP registered, with the count and checksum vouch the
            // full dispatch below would give it. TCP reads only src, dst,
            // protocol and total length from the header.
            if (p[9] == kProtoTcp && tcp_handler_ != nullptr) {
                Ipv4Header h{};
                h.src = util::Ipv4Address(load_u32(p + 12));
                h.dst = dst;
                h.protocol = kProtoTcp;
                h.total_length = static_cast<std::uint16_t>(packet.bytes.size());
                const auto payload =
                    std::span<const std::uint8_t>(packet.bytes).subspan(kIpv4HeaderSize);
                counters_.inc(telemetry::Counter::IpDeliver);
                rx_csum_ok_ = true;
                (*tcp_handler_)(h, payload, ifindex);
                rx_csum_ok_ = false;
                recycle_wire(packet);
                return;
            }
        } else if (dst != kBroadcastAddress && forwarding_ && forward_tap_ == nullptr &&
                   packet.bytes.size() <= min_mtu_) {
            // Transit lane: a datagram for another host at a forwarding
            // node goes straight to forward() with only the fields its fast
            // path reads unpacked. The min_mtu_ fence guarantees the wire
            // fits every egress, so the fragmenting slow path — the one
            // consumer of the fields left blank — is unreachable; a forward
            // tap wants the full header, so its presence (like the
            // tracer's and recorder's) disqualifies. TTL-expired / no-route
            // ICMP errors rebuild from the wire bytes and never read the
            // decoded header.
            DecodedDatagram d;
            Ipv4Header& h = d.header;
            h.src = util::Ipv4Address(load_u32(p + 12));
            h.dst = dst;
            h.ttl = p[8];
            h.protocol = p[9];
            h.total_length = static_cast<std::uint16_t>(packet.bytes.size());
            h.dont_fragment = (load_u16(p + 6) & 0x4000u) != 0;
            d.header_length = kIpv4HeaderSize;
            forward(d, packet);
            recycle_wire(packet);  // no-op when the fast path moved the buffer on
            return;
        }
    }

    DecodedDatagram d;
    bool checksum_ok = false;
    try {
        // csum_ok packets skip the header fold (it would provably pass:
        // the encoder computed it and no hop corrupted the bytes).
        checksum_ok = decode_datagram(packet.bytes, d, !packet.csum_ok);
    } catch (const util::DecodeError&) {
        // Same drop event as every other discard; the header carries
        // whatever fields decoded before the failure (best effort, exactly
        // what a wire sniffer would report for a mangled datagram).
        counters_.inc(telemetry::Counter::IpDropMalformed);
        note(telemetry::PacketEvent::Drop, d.header, packet.size(),
             telemetry::DropReason::Malformed);
        recycle_wire(packet);
        return;
    }
    if (!checksum_ok) {
        counters_.inc(telemetry::Counter::IpDropChecksum);
        note(telemetry::PacketEvent::Drop, d.header, packet.size(),
             telemetry::DropReason::Checksum);
        recycle_wire(packet);
        return;
    }
    note(telemetry::PacketEvent::Rx, d.header, packet.size());

    if (is_local_address(d.header.dst) || d.header.dst == kBroadcastAddress) {
        const auto payload = payload_of(packet.bytes, d);
        if (d.header.is_fragment()) {
            auto completed = reassembler_.add_fragment(d.header, payload);
            if (completed) deliver_local(d.header, *completed, ifindex);
        } else {
            // Ambient checksum-offload vouch for the transport being
            // dispatched (fragments never qualify: reassembly rewrote the
            // bytes the encoder checksummed over).
            rx_csum_ok_ = packet.csum_ok;
            deliver_local(d.header, payload, ifindex);
            rx_csum_ok_ = false;
        }
    } else if (!forwarding_) {
        counters_.inc(telemetry::Counter::IpDropNotForUs);
    } else {
        forward(d, packet);
    }
    recycle_wire(packet);  // no-op when the fast path moved the buffer on
}

void IpStack::deliver_local(const Ipv4Header& header, std::span<const std::uint8_t> payload,
                            std::size_t ifindex) {
    counters_.inc(telemetry::Counter::IpDeliver);
    note(telemetry::PacketEvent::Deliver, header, kIpv4HeaderSize + payload.size());
    if (header.protocol == kProtoIcmp) {
        handle_icmp(header, payload);
    }
    auto it = protocols_.find(header.protocol);
    if (it != protocols_.end()) {
        it->second(header, payload, ifindex);
    } else if (header.protocol != kProtoIcmp) {
        // Reconstruct enough of the offending datagram.
        auto offending = encode_datagram(
            header, payload.subspan(0, std::min<std::size_t>(payload.size(), 8)),
            sim_.buffer_pool());
        send_icmp_error(IcmpType::DestinationUnreachable, kUnreachProtocol, offending);
        sim_.buffer_pool().recycle(std::move(offending));
    }
}

void IpStack::forward(const DecodedDatagram& d, link::Packet& packet) {
    const Ipv4Header& header = d.header;
    const std::span<const std::uint8_t> wire = packet.bytes;
    if (header.ttl <= 1) {
        counters_.inc(telemetry::Counter::IpDropTtlExpired);
        note(telemetry::PacketEvent::Drop, header, wire.size(),
             telemetry::DropReason::TtlExpired);
        send_icmp_error(IcmpType::TimeExceeded, 0, wire);
        return;
    }
    const Route* route = lookup_route(header.dst);
    if (route == nullptr) {
        counters_.inc(telemetry::Counter::IpDropNoRoute);
        note(telemetry::PacketEvent::Drop, header, wire.size(),
             telemetry::DropReason::NoRoute);
        send_icmp_error(IcmpType::DestinationUnreachable, kUnreachNet, wire);
        return;
    }

    const Interface& iface = interfaces_[route->ifindex];
    const std::size_t mtu = iface.mtu;
    if (header.dont_fragment && std::size_t{header.total_length} > mtu) {
        send_icmp_error(IcmpType::DestinationUnreachable, kUnreachFragNeeded, wire);
        return;
    }

    // Fast path — the overwhelmingly common shape: no IP options, no link
    // trailer, fits the egress MTU. The datagram is never re-serialized:
    // TTL is decremented in the received bytes, the checksum patched
    // incrementally (RFC 1624), and the owned buffer moves straight to the
    // egress queue. Zero copies, zero allocations.
    if (d.header_length == kIpv4HeaderSize && wire.size() == header.total_length &&
        wire.size() <= mtu) {
        if (!iface.netif->is_up()) {
            counters_.inc(telemetry::Counter::IpDropIfaceDown);
            return;
        }
        const std::size_t wire_bytes = wire.size();
        const util::Ipv4Address next_hop =
            route->next_hop.is_unspecified() ? header.dst : route->next_hop;
        decrement_ttl(packet.bytes);
        iface.netif->send(std::move(packet), next_hop);
        counters_.inc(telemetry::Counter::IpFwd);
        if (trace_ || forward_tap_ || recorder_ != nullptr) {
            // Observers want the header as sent; built only when someone
            // is actually watching.
            Ipv4Header out = header;
            out.ttl = static_cast<std::uint8_t>(header.ttl - 1);
            note(telemetry::PacketEvent::Fwd, out, wire_bytes);
            if (forward_tap_) forward_tap_(out, wire_bytes);
        }
        return;
    }

    Ipv4Header out = header;
    out.ttl = static_cast<std::uint8_t>(header.ttl - 1);

    // Slow path (IP options, link padding, or fragmentation ahead): decode
    // and re-serialize exactly as the seed did.
    const auto payload = payload_of(wire, d);
    if (transmit(out, payload, *route)) {
        counters_.inc(telemetry::Counter::IpFwd);
        note(telemetry::PacketEvent::Fwd, out, wire.size());
        if (forward_tap_) forward_tap_(out, wire.size());
    }
}

void IpStack::handle_icmp(const Ipv4Header& header, std::span<const std::uint8_t> payload) {
    auto msg = decode_icmp(payload);
    if (!msg) return;
    switch (msg->type) {
        case IcmpType::EchoRequest: {
            const auto reply = IcmpMessage::echo_reply(*msg);
            auto wire = encode_icmp(reply, sim_.buffer_pool());
            SendOptions opts;
            opts.source = header.dst;
            send(kProtoIcmp, header.src, wire, opts);
            sim_.buffer_pool().recycle(std::move(wire));
            break;
        }
        case IcmpType::DestinationUnreachable:
        case IcmpType::SourceQuench:
        case IcmpType::TimeExceeded:
            for (const auto& handler : icmp_error_handlers_) handler(*msg, header.src);
            break;
        default:
            break;
    }
}

void IpStack::send_icmp_error(IcmpType type, std::uint8_t code,
                              std::span<const std::uint8_t> offending_wire) {
    // RFC 1122 restraint: never generate errors about ICMP errors or about
    // non-first fragments.
    try {
        DecodedDatagram d;
        if (!decode_datagram(offending_wire, d)) return;
        if (d.header.fragment_offset != 0) return;
        if (d.header.dst == kBroadcastAddress) return;  // never error on broadcasts
        if (d.header.protocol == kProtoIcmp) {
            auto inner = decode_icmp(payload_of(offending_wire, d));
            if (inner && inner->type != IcmpType::EchoRequest &&
                inner->type != IcmpType::EchoReply) {
                return;
            }
        }
        IcmpMessage msg = IcmpMessage::error(type, code, offending_wire);
        auto wire = encode_icmp(msg, sim_.buffer_pool());
        const bool sent = send(kProtoIcmp, d.header.src, wire);
        sim_.buffer_pool().recycle(std::move(wire));
        sim_.buffer_pool().recycle(std::move(msg.body));
        if (sent) {
            counters_.inc(telemetry::Counter::IpIcmpErrorsSent);
        }
    } catch (const util::DecodeError&) {
        // Too mangled to attribute; stay silent.
    }
}

}  // namespace catenet::ip
