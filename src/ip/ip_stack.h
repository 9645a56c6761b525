// The internet layer of one node: datagram send/receive, forwarding,
// fragmentation, reassembly, ICMP. This is the architectural centerpiece:
// a *gateway* in this library is nothing but an IpStack with forwarding
// enabled — it holds a routing table and queues, and deliberately **no
// per-connection state of any kind** (fate-sharing). Crashing one loses
// packets in flight and nothing else; experiments E1/E8 depend on that
// being structurally true, not merely configured.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ip/icmp.h"
#include "ip/ipv4_header.h"
#include "ip/reassembly.h"
#include "ip/routing_table.h"
#include "link/netif.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/record.h"

namespace catenet::ip {

/// The limited-broadcast address; delivered on-link, never forwarded.
inline constexpr util::Ipv4Address kBroadcastAddress{0xffffffffu};

struct IpStats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t delivered_locally = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t dropped_bad_checksum = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl_expired = 0;
    std::uint64_t dropped_iface_down = 0;
    std::uint64_t dropped_not_for_us = 0;
    std::uint64_t fragments_created = 0;
    std::uint64_t icmp_errors_sent = 0;
    std::uint64_t source_quenches_sent = 0;
};

/// Options for an outbound datagram.
struct SendOptions {
    std::uint8_t tos = 0;
    std::uint8_t ttl = 64;
    bool dont_fragment = false;
    /// Unspecified = pick the outgoing interface's address.
    util::Ipv4Address source;
};

class IpStack {
public:
    /// Handler for a protocol's inbound datagrams (payload fully
    /// reassembled). `ifindex` is where the datagram arrived.
    using ProtocolHandler =
        std::function<void(const Ipv4Header&, std::span<const std::uint8_t> payload,
                           std::size_t ifindex)>;

    /// Observer for inbound ICMP errors (delivered in addition to any
    /// registered ICMP protocol handling).
    using IcmpErrorHandler =
        std::function<void(const IcmpMessage&, util::Ipv4Address from)>;

    /// Names one registered handler, for removing it; never 0.
    using HandlerId = std::uint64_t;

    IpStack(sim::Simulator& sim, std::string name);

    /// Attaches an interface with its address and on-link subnet. Installs
    /// a connected route and begins receiving. Returns the ifindex.
    std::size_t add_interface(link::NetIf& netif, util::Ipv4Address addr,
                              util::Ipv4Prefix subnet);

    std::size_t interface_count() const noexcept { return interfaces_.size(); }
    link::NetIf& interface(std::size_t ifindex) { return *interfaces_.at(ifindex).netif; }
    util::Ipv4Address interface_address(std::size_t ifindex) const {
        return interfaces_.at(ifindex).address;
    }

    /// First interface address — a convenient node identity for hosts.
    util::Ipv4Address primary_address() const;

    /// Hosts: off (default). Gateways: on.
    void set_forwarding(bool on) noexcept { forwarding_ = on; }
    bool forwarding() const noexcept { return forwarding_; }

    /// Node failure injection. A down stack discards everything silently;
    /// bringing it back up clears reassembly buffers (memory lost in the
    /// crash) but keeps the routing table (assumed in stable storage) —
    /// callers can flush_routes() to model losing that too.
    void set_down(bool down);
    bool is_down() const noexcept { return down_; }
    void flush_routes();

    /// Installs `protocol`'s handler, replacing any earlier one.
    HandlerId register_protocol(std::uint8_t protocol, ProtocolHandler handler);

    /// Removes `protocol`'s handler if `id` still names it (a later
    /// register_protocol may have replaced it). Safe from inside any
    /// handler, the one removed included: dispatch runs a copy.
    void remove_protocol(std::uint8_t protocol, HandlerId id);

    /// True while the currently-dispatched inbound datagram carried the
    /// link-layer csum_ok vouch (and is not a fragment): the transport may
    /// skip its own checksum fold, which would provably pass.
    bool rx_csum_ok() const noexcept { return rx_csum_ok_; }

    /// Adds an inbound ICMP-error observer (multiple allowed: transports
    /// and diagnostics both listen).
    HandlerId add_icmp_error_handler(IcmpErrorHandler handler) {
        icmp_error_handlers_.push_back(IcmpErrorEntry{++last_handler_id_, std::move(handler)});
        return last_handler_id_;
    }

    /// Removes an ICMP-error observer; no-op for an unknown id. Safe from
    /// inside any handler: a removed observer is not called again, not
    /// even for the error being dispatched.
    void remove_icmp_error_handler(HandlerId id) {
        std::erase_if(icmp_error_handlers_,
                      [id](const IcmpErrorEntry& e) { return e.id == id; });
    }

    /// Gateways: emit ICMP Source Quench to the traffic source when an
    /// egress queue drops a forwarded datagram (RFC 792's congestion
    /// signal, rate-limited). Off by default — it is itself a design
    /// choice the benchmarks ablate.
    void set_source_quench(bool on, sim::Time min_interval = sim::milliseconds(50));

    /// Sends a payload as one datagram (fragmenting as needed for the
    /// egress MTU). Returns false when there is no route, the stack or
    /// egress interface is down, or the datagram is too big for the egress
    /// MTU and may not be fragmented — exactly the cases where a real stack
    /// fails synchronously; all other losses are silent, downstream, and
    /// the sender's problem to recover from (end-to-end argument). Copies
    /// the payload into a pooled buffer behind header headroom.
    bool send(std::uint8_t protocol, util::Ipv4Address dst,
              std::span<const std::uint8_t> payload, const SendOptions& options = {});

    /// Zero-copy transport hand-off: `wire` already holds kIpv4HeaderSize
    /// bytes of headroom followed by the complete transport segment. It
    /// takes send()'s path without the copy: the IPv4 header is written in
    /// place over the headroom and the buffer moves straight to the egress
    /// link. The buffer goes back to the simulator pool on every failure
    /// return and after fragmenting, so the caller never owns it afterwards.
    /// Failure conditions match send(). The segment's transport checksum
    /// must already be computed: a datagram that leaves whole carries
    /// link::Packet::csum_ok (DESIGN.md §12), so receivers skip
    /// re-verifying both checksums.
    bool send_with_headroom(std::uint8_t protocol, util::Ipv4Address dst,
                            util::ByteBuffer&& wire, const SendOptions& options = {});

    /// Sends a payload as a link-local broadcast (dst 255.255.255.255)
    /// directly out one interface. Broadcasts are delivered to every node
    /// on that network and never forwarded — the routing protocols use
    /// this to reach their neighbors. Like a unicast send it counts in
    /// ip.tx and takes an identification before it meets the interface,
    /// so a broadcast on a dead interface is an ip.drop.iface_down.
    bool send_broadcast(std::uint8_t protocol, std::size_t ifindex,
                        std::span<const std::uint8_t> payload, const SendOptions& options = {});

    /// Sends an ICMP echo request; replies surface via the error handler
    /// or a protocol handler registered for ICMP. `ttl` below the path
    /// length provokes Time Exceeded from the expiring gateway — the
    /// mechanism traceroute is built on.
    bool ping(util::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
              util::ByteBuffer data = {}, std::uint8_t ttl = 64);

    RoutingTable& routing_table() noexcept { return routes_; }
    const RoutingTable& routing_table() const noexcept { return routes_; }

    /// Legacy statistics view, synthesized from the telemetry counter
    /// block — the counters are the single storage, so the hot path pays
    /// one increment per event, not two parallel ones.
    IpStats stats() const noexcept {
        using telemetry::Counter;
        IpStats s;
        s.datagrams_sent = counters_.get(Counter::IpTx);
        s.datagrams_received = counters_.get(Counter::IpRx);
        s.delivered_locally = counters_.get(Counter::IpDeliver);
        s.forwarded = counters_.get(Counter::IpFwd);
        s.dropped_bad_checksum = counters_.get(Counter::IpDropChecksum);
        s.dropped_malformed = counters_.get(Counter::IpDropMalformed);
        s.dropped_no_route = counters_.get(Counter::IpDropNoRoute);
        s.dropped_ttl_expired = counters_.get(Counter::IpDropTtlExpired);
        s.dropped_iface_down = counters_.get(Counter::IpDropIfaceDown);
        s.dropped_not_for_us = counters_.get(Counter::IpDropNotForUs);
        s.fragments_created = counters_.get(Counter::IpFragsCreated);
        s.icmp_errors_sent = counters_.get(Counter::IpIcmpErrorsSent);
        s.source_quenches_sent = counters_.get(Counter::IpSourceQuenchSent);
        return s;
    }
    const ReassemblyStats& reassembly_stats() const noexcept { return reassembler_.stats(); }
    const std::string& name() const noexcept { return name_; }
    sim::Simulator& simulator() noexcept { return sim_; }

    /// True if `addr` is bound to any of this stack's interfaces. Probed
    /// per datagram at every hop, so the scan runs over a dense u32
    /// shadow of the interface addresses (one cache line for any
    /// realistic interface count) instead of the fat Interface records.
    bool is_local_address(util::Ipv4Address addr) const noexcept {
        for (const std::uint32_t a : local_addrs_) {
            if (a == addr.value()) return true;
        }
        return false;
    }

    /// Observation hook on the forwarding path (gateway accounting, E7).
    /// Receives the already-decoded header and the datagram's wire size.
    using ForwardTap = std::function<void(const Ipv4Header&, std::size_t wire_bytes)>;
    void set_forward_tap(ForwardTap tap) { forward_tap_ = std::move(tap); }

    /// Attaches a flight-recorder lane, the stack's packet trace: every
    /// tx / rx / deliver / fwd / drop event is appended as a 32-byte binary
    /// record (see telemetry/record.h). Recording costs no formatting —
    /// FlightRecorder renders trace lines after the run. nullptr detaches.
    void set_recorder(telemetry::RecorderLane* lane) noexcept { recorder_ = lane; }

    /// This node's internet-layer counters (single writer: the shard
    /// thread that runs this stack). The sole storage for internet-layer
    /// accounting; stats() is a view over these slots.
    const telemetry::CounterBlock& counters() const noexcept { return counters_; }

    /// Route-cache geometry (DESIGN.md §13): set-associative, one line per
    /// address block, so a gateway's working set is its active blocks, not
    /// its active hosts; half as many sets still held every perfbench
    /// workload's. Public so the eviction tests can construct colliding
    /// blocks deterministically.
    static constexpr std::size_t kRouteCacheSets = 32;
    static constexpr std::size_t kRouteCacheWays = 4;
    /// The set a block maps to: Fibonacci hash of its key (the destination
    /// masked by RoutingTable::block_mask()), top bits, so dense address
    /// blocks (10.0.x.0/24) spread out.
    static constexpr std::size_t route_cache_set(util::Ipv4Address key) noexcept {
        return (key.value() * 2654435761u) >> 27;  // 32 - log2(32)
    }

private:
    struct Interface {
        link::NetIf* netif;
        util::Ipv4Address address;
        util::Ipv4Prefix subnet;
        // Cached at attach time: an interface's MTU is fixed by its link
        // parameters for life, and the forwarding fast path reads it per
        // datagram — no reason to pay a virtual call for a constant.
        std::size_t mtu;
    };

    // A forwarding decision, copied out of the longest match when a cache
    // line fills: the egress interface and the route's next hop. An
    // unspecified next hop is a connected route's, so the datagram goes to
    // its own destination (never to the line's block key). ifindex
    // kNoRoute caches "no route".
    static constexpr std::uint32_t kNoRoute = ~std::uint32_t{0};
    struct RouteDecision {
        std::uint32_t ifindex = kNoRoute;
        util::Ipv4Address next_hop;

        bool routed() const noexcept { return ifindex != kNoRoute; }
        util::Ipv4Address next_hop_for(util::Ipv4Address dst) const noexcept {
            return next_hop.is_unspecified() ? dst : next_hop;
        }
    };

    // One line of the route cache: pure soft state in the paper's sense.
    // It covers one block of destinations — those equal under the table's
    // block_mask(), which share one longest match — and holds that match's
    // decision by value, so a hit reads nothing of the table. A line is
    // live only while its generation matches the routing table's; any
    // install/remove/flush bumps the table generation and thereby
    // invalidates every line at once, so a stale route can never be served
    // and wiping the cache is always behavior-free.
    struct RouteCacheEntry {
        std::uint32_t key = 0;  ///< destination & block_mask() at the fill
        RouteDecision decision;
        std::uint64_t generation = 0;  ///< table generations start at 1
    };

    void receive(std::size_t ifindex, link::Packet packet);
    void deliver_local(const Ipv4Header& header, std::span<const std::uint8_t> payload,
                       std::size_t ifindex);
    /// Forwarding takes the owned packet: the fast path (no options, no
    /// link padding, fits the egress MTU) rewrites TTL/checksum in place
    /// and moves the buffer straight to the egress interface; every other
    /// shape that is not dropped trims the buffer and moves it into
    /// egress(). A dropped packet is left with the caller, which recycles it.
    void forward(const DecodedDatagram& d, link::Packet& packet);

    /// Every datagram this node originates to a unicast address: loopback,
    /// route, identification, source address and ip.tx, then egress().
    /// `wire` is kIpv4HeaderSize bytes of headroom and the payload.
    bool output(std::uint8_t protocol, util::Ipv4Address dst, util::ByteBuffer&& wire,
                const SendOptions& options, bool vouched);
    void loopback(Ipv4Header header, util::ByteBuffer&& wire);

    /// The one exit to a network for what this node sends, and for what it
    /// forwards off the fast path. Checks the carrier; then a datagram that
    /// fits the MTU gets its header written in place over the headroom and
    /// carries the checksum vouch iff `vouched`, and one that does not is
    /// fragmented, or dropped as frag_needed when DF forbids it. Consumes
    /// `wire` either way; false iff the datagram was dropped.
    bool egress(const Ipv4Header& header, util::ByteBuffer&& wire, const Interface& iface,
                util::Ipv4Address next_hop, bool vouched);
    void handle_icmp(const Ipv4Header& header, std::span<const std::uint8_t> payload);
    void send_icmp_error(IcmpType type, std::uint8_t code,
                         std::span<const std::uint8_t> offending_wire);

    /// Cached longest-prefix match, counting the cache hit or miss. Serves
    /// the lookups in output() and forward().
    RouteDecision lookup_route(util::Ipv4Address dst);

    /// Every IP discard: bumps the reason's ip.drop.* slot and writes the
    /// drop record, so the recorder and the counters agree by construction.
    void drop(telemetry::DropReason reason, const Ipv4Header& h, std::size_t wire_bytes) {
        counters_.inc(telemetry::drop_counter(reason));
        note(telemetry::PacketEvent::Drop, h, wire_bytes, reason);
    }

    /// The flight recorder's one observation point. Every datagram event an
    /// ip.* counter counts is noted beside its increment: ip.tx, ip.rx
    /// (as an rx record, or a checksum or malformed drop), ip.fwd,
    /// ip.deliver and, through drop(), each ip.drop.* reason but one.
    /// Reassembly timeouts stay counted only: the Reassembler counts them
    /// lazily, with no header at hand.
    void note(telemetry::PacketEvent event, const Ipv4Header& h, std::size_t wire_bytes,
              telemetry::DropReason reason = telemetry::DropReason::None) {
#ifndef CATENET_NO_TELEMETRY
        if (recorder_ != nullptr) {
            telemetry::PacketRecord r;
            r.t_ns = sim_.now().nanos();
            r.src = h.src.value();
            r.dst = h.dst.value();
            r.wire_bytes = static_cast<std::uint32_t>(wire_bytes);
            r.frag_off = h.fragment_offset;
            r.event = static_cast<std::uint8_t>(event);
            r.protocol = h.protocol;
            r.ttl = h.ttl;
            r.tos = h.tos;
            r.more_fragments = h.more_fragments ? 1 : 0;
            r.reason = static_cast<std::uint8_t>(reason);
            recorder_->append(r);
        }
#else
        (void)event;
        (void)h;
        (void)wire_bytes;
        (void)reason;
#endif
    }
    /// Returns a retired packet's buffer capacity to the simulation pool;
    /// no-op if the buffer was already moved onward.
    void recycle_wire(link::Packet& packet) {
        sim_.buffer_pool().recycle(std::move(packet.bytes));
    }

    sim::Simulator& sim_;
    std::string name_;
    std::vector<Interface> interfaces_;
    /// interfaces_[i].address.value(), index-aligned — the hot-path shadow
    /// behind is_local_address() (addresses are fixed at attach time).
    std::vector<std::uint32_t> local_addrs_;
    RoutingTable routes_;
    /// kRouteCacheSets × kRouteCacheWays, set-major: the set's ways are
    /// contiguous (96 bytes), so a probe walks them without a second index
    /// computation.
    std::array<RouteCacheEntry, kRouteCacheSets * kRouteCacheWays> route_cache_{};
    /// Per-set round-robin victim cursor, used only when no way in the set
    /// is stale (a stale way — generation mismatch — is always the victim
    /// of choice: it can never hit again).
    std::array<std::uint8_t, kRouteCacheSets> route_cache_rr_{};
    Reassembler reassembler_;
    struct ProtocolEntry {
        HandlerId id;
        ProtocolHandler handler;
    };
    struct IcmpErrorEntry {
        HandlerId id;
        IcmpErrorHandler handler;
    };
    std::unordered_map<std::uint8_t, ProtocolEntry> protocols_;
    bool rx_csum_ok_ = false;  ///< ambient flag: current inbound datagram is vouched
    std::vector<IcmpErrorEntry> icmp_error_handlers_;
    HandlerId last_handler_id_ = 0;
    ForwardTap forward_tap_;
    telemetry::CounterBlock counters_;
    telemetry::RecorderLane* recorder_ = nullptr;
    bool source_quench_ = false;
    sim::Time quench_min_interval_;
    sim::Time last_quench_;
    std::uint16_t next_identification_ = 1;
    bool forwarding_ = false;
    bool down_ = false;
};

}  // namespace catenet::ip
