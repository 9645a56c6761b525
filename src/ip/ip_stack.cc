#include "ip/ip_stack.h"

#include <algorithm>

#include "ip/protocols.h"
#include "util/logging.h"

namespace catenet::ip {

namespace {
const util::Logger kLog("ip");

// A pooled copy of `payload` behind kIpv4HeaderSize bytes of headroom, the
// layout egress() writes its header into.
util::ByteBuffer behind_headroom(util::BufferPool& pool,
                                 std::span<const std::uint8_t> payload) {
    util::ByteBuffer wire = pool.acquire(kIpv4HeaderSize + payload.size());
    wire.resize(kIpv4HeaderSize);
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
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

IpStack::HandlerId IpStack::register_protocol(std::uint8_t protocol, ProtocolHandler handler) {
    protocols_[protocol] = ProtocolEntry{++last_handler_id_, std::move(handler)};
    return last_handler_id_;
}

void IpStack::remove_protocol(std::uint8_t protocol, HandlerId id) {
    const auto it = protocols_.find(protocol);
    if (it != protocols_.end() && it->second.id == id) protocols_.erase(it);
}

IpStack::RouteDecision IpStack::lookup_route(util::Ipv4Address dst) {
    static_assert((kRouteCacheSets & (kRouteCacheSets - 1)) == 0);
    const std::uint32_t key = dst.value() & routes_.block_mask();
    const std::size_t set = route_cache_set(util::Ipv4Address(key));
    const std::uint64_t generation = routes_.generation();
    RouteCacheEntry* ways = &route_cache_[set * kRouteCacheWays];
    for (std::size_t w = 0; w < kRouteCacheWays; ++w) {
        if (ways[w].generation == generation && ways[w].key == key) {
            counters_.inc(telemetry::Counter::IpRouteCacheHit);
            return ways[w].decision;
        }
    }
    // Miss: one real LPM refills a way. Negative results are cached too
    // (kNoRoute) — a gateway being flooded with unroutable datagrams is
    // exactly when the table scan hurts most. Victim: the first stale way
    // (it can never hit again under this generation), falling back to the
    // set's round-robin cursor.
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
    slot.key = key;
    slot.decision = RouteDecision{};
    if (const RouteRef route = routes_.lookup(dst)) {
        slot.decision = RouteDecision{route->ifindex, route->next_hop};
    }
    slot.generation = generation;
    return slot.decision;
}

bool IpStack::send(std::uint8_t protocol, util::Ipv4Address dst,
                   std::span<const std::uint8_t> payload, const SendOptions& options) {
    return output(protocol, dst, behind_headroom(sim_.buffer_pool(), payload), options,
                  /*vouched=*/false);
}

bool IpStack::send_with_headroom(std::uint8_t protocol, util::Ipv4Address dst,
                                 util::ByteBuffer&& wire, const SendOptions& options) {
    // The caller computed the transport checksum, and egress() computes the
    // header's: a datagram that leaves whole may carry the vouch.
    return output(protocol, dst, std::move(wire), options, /*vouched=*/true);
}

bool IpStack::output(std::uint8_t protocol, util::Ipv4Address dst, util::ByteBuffer&& wire,
                     const SendOptions& options, bool vouched) {
    if (down_) {
        sim_.buffer_pool().recycle(std::move(wire));
        return false;
    }
    Ipv4Header header;
    header.protocol = protocol;
    header.tos = options.tos;
    header.ttl = options.ttl;
    header.dont_fragment = options.dont_fragment;
    header.src = options.source;
    header.dst = dst;
    if (is_local_address(dst)) {
        loopback(header, std::move(wire));
        return true;
    }
    const RouteDecision route = lookup_route(dst);
    if (!route.routed()) {
        drop(telemetry::DropReason::NoRoute, header, wire.size());
        sim_.buffer_pool().recycle(std::move(wire));
        return false;
    }
    const Interface& iface = interfaces_.at(route.ifindex);
    header.identification = next_identification_++;
    if (header.src.is_unspecified()) header.src = iface.address;
    counters_.inc(telemetry::Counter::IpTx);
    note(telemetry::PacketEvent::Tx, header, wire.size());
    return egress(header, std::move(wire), iface, route.next_hop_for(dst), vouched);
}

// Delivery without touching any interface, one event later. No
// identification is taken: the datagram never meets a network.
void IpStack::loopback(Ipv4Header header, util::ByteBuffer&& wire) {
    if (header.src.is_unspecified()) header.src = header.dst;
    counters_.inc(telemetry::Counter::IpTx);
    note(telemetry::PacketEvent::Tx, header, wire.size());
    sim_.schedule_after(sim::Time(0), [this, header, wire = std::move(wire)]() mutable {
        deliver_local(header, std::span<const std::uint8_t>(wire).subspan(kIpv4HeaderSize), 0);
        sim_.buffer_pool().recycle(std::move(wire));
    });
}

bool IpStack::egress(const Ipv4Header& header, util::ByteBuffer&& wire, const Interface& iface,
                     util::Ipv4Address next_hop, bool vouched) {
    if (!iface.netif->is_up()) {
        drop(telemetry::DropReason::IfaceDown, header, wire.size());
        sim_.buffer_pool().recycle(std::move(wire));
        return false;
    }
    if (wire.size() <= iface.mtu) {
        write_ipv4_header(wire, header, wire.size());
        iface.netif->send(link::Packet{std::move(wire), vouched}, next_hop);
        return true;
    }
    if (header.dont_fragment) {
        drop(telemetry::DropReason::FragNeeded, header, wire.size());
        sim_.buffer_pool().recycle(std::move(wire));
        return false;
    }
    // Fragments carry the largest multiple of 8 payload bytes that fits
    // (the MTU is at least 68, so that is at least 48). Each is encoded
    // afresh; none carries the vouch.
    const auto payload = std::span<const std::uint8_t>(wire).subspan(kIpv4HeaderSize);
    const std::size_t chunk = ((iface.mtu - kIpv4HeaderSize) / 8) * 8;
    const std::size_t base_offset = header.payload_offset_bytes();
    for (std::size_t pos = 0; pos < payload.size(); pos += chunk) {
        const std::size_t len = std::min(chunk, payload.size() - pos);
        Ipv4Header frag = header;
        frag.fragment_offset = static_cast<std::uint16_t>((base_offset + pos) / 8);
        frag.more_fragments = header.more_fragments || (pos + len < payload.size());
        auto out = encode_datagram(frag, payload.subspan(pos, len), sim_.buffer_pool());
        counters_.inc(telemetry::Counter::IpFragsCreated);
        iface.netif->send(link::Packet{std::move(out)}, next_hop);
    }
    sim_.buffer_pool().recycle(std::move(wire));
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
    const Interface& iface = interfaces_[ifindex];
    Ipv4Header header;
    header.protocol = protocol;
    header.tos = options.tos;
    header.ttl = 1;
    header.identification = next_identification_++;
    header.src = iface.address;
    header.dst = kBroadcastAddress;
    util::ByteBuffer wire = behind_headroom(sim_.buffer_pool(), payload);
    counters_.inc(telemetry::Counter::IpTx);
    note(telemetry::PacketEvent::Tx, header, wire.size());
    return egress(header, std::move(wire), iface, util::Ipv4Address{}, /*vouched=*/false);
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

void IpStack::receive(std::size_t ifindex, link::Packet packet) {
    if (down_) {
        recycle_wire(packet);
        return;
    }
    counters_.inc(telemetry::Counter::IpRx);

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
        drop(telemetry::DropReason::Malformed, d.header, packet.size());
        recycle_wire(packet);
        return;
    }
    if (!checksum_ok) {
        drop(telemetry::DropReason::Checksum, d.header, packet.size());
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
        drop(telemetry::DropReason::NotForUs, d.header, packet.size());
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
        // A copy runs: the handler may remove or replace itself, or destroy
        // its owner, before it returns.
        const ProtocolHandler handler = it->second.handler;
        handler(header, payload, ifindex);
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
        drop(telemetry::DropReason::TtlExpired, header, wire.size());
        send_icmp_error(IcmpType::TimeExceeded, 0, wire);
        return;
    }
    const RouteDecision route = lookup_route(header.dst);
    if (!route.routed()) {
        drop(telemetry::DropReason::NoRoute, header, wire.size());
        send_icmp_error(IcmpType::DestinationUnreachable, kUnreachNet, wire);
        return;
    }

    const Interface& iface = interfaces_[route.ifindex];
    const std::size_t mtu = iface.mtu;
    // DF is tested against the size that leaves: a forwarded datagram
    // carries a 20-byte header, its options stripped (below).
    if (header.dont_fragment && kIpv4HeaderSize + d.payload_length > mtu) {
        drop(telemetry::DropReason::FragNeeded, header, wire.size());
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
            drop(telemetry::DropReason::IfaceDown, header, wire.size());
            return;
        }
        const std::size_t wire_bytes = wire.size();
        decrement_ttl(packet.bytes);
        iface.netif->send(std::move(packet), route.next_hop_for(header.dst));
        counters_.inc(telemetry::Counter::IpFwd);
        if (forward_tap_ || recorder_ != nullptr) {
            // Observers want the header as sent; built only when someone
            // is actually watching.
            Ipv4Header out = header;
            out.ttl = static_cast<std::uint8_t>(header.ttl - 1);
            note(telemetry::PacketEvent::Fwd, out, wire_bytes);
            if (forward_tap_) forward_tap_(out, wire_bytes);
        }
        return;
    }

    // Every other shape (IP options, link padding, fragmentation ahead):
    // the received buffer is trimmed to a 20-byte header slot and the
    // payload, and leaves through egress() as a datagram this node sends
    // does. Observers still see the size that arrived.
    Ipv4Header out = header;
    out.ttl = static_cast<std::uint8_t>(header.ttl - 1);
    const std::size_t wire_bytes = wire.size();
    util::ByteBuffer& bytes = packet.bytes;
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(kIpv4HeaderSize),
                bytes.begin() + static_cast<std::ptrdiff_t>(d.payload_offset));
    bytes.resize(kIpv4HeaderSize + d.payload_length);
    if (egress(out, std::move(bytes), iface, route.next_hop_for(header.dst),
               /*vouched=*/false)) {
        counters_.inc(telemetry::Counter::IpFwd);
        note(telemetry::PacketEvent::Fwd, out, wire_bytes);
        if (forward_tap_) forward_tap_(out, wire_bytes);
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
        case IcmpType::TimeExceeded: {
            // Handlers may add or remove handlers, their own included, or
            // destroy their owner: run copies, skipping any entry removed
            // since the copy was taken.
            const std::vector<IcmpErrorEntry> handlers = icmp_error_handlers_;
            for (const IcmpErrorEntry& e : handlers) {
                const bool registered = std::any_of(
                    icmp_error_handlers_.begin(), icmp_error_handlers_.end(),
                    [&e](const IcmpErrorEntry& live) { return live.id == e.id; });
                if (registered) e.handler(*msg, header.src);
            }
            break;
        }
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
