// The telemetry subsystem: drop-reason/counter-name unification, exactness
// of the counter registry against the legacy per-stack statistics on a
// seeded lossy multi-hop transfer, the flight recorder's records against
// the IP counters on every counted path, bounded-ring overwrite
// accounting, allocation-freedom of steady-state instrumentation, gauge
// sampling, and determinism of the exported JSON report.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "app/bulk.h"
#include "app/voice.h"
#include "core/internetwork.h"
#include "ip/ip_stack.h"
#include "ip/ipv4_header.h"
#include "link/presets.h"
#include "telemetry/counters.h"
#include "telemetry/drop_reason.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/gauges.h"
#include "telemetry/record.h"
#include "telemetry/report.h"

// Global allocation counter (same per-binary harness as test_sim.cc and
// test_forward_fastpath.cc): counts every operator-new in this binary;
// tests measure deltas around loops that must never touch the allocator.
namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// The nothrow forms must be overridden too: libstdc++'s temporary buffers
// (std::inplace_merge in RoutingTable::bulk_load) allocate with
// operator new(nothrow) but release through plain operator delete — if
// only the throwing forms route to malloc, the pairing splits across
// allocators (ASan flags the mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace catenet {
namespace {

using telemetry::Counter;
using telemetry::CounterBlock;
using telemetry::DropReason;

// --- name unification ---------------------------------------------------

TEST(CounterNames, DropCountersEndWithSharedReasonSpelling) {
    // The contract satellite (b) exists to enforce: a trace line's drop
    // reason and the matching counter's name come from one spelling.
    for (std::size_t i = 1; i < static_cast<std::size_t>(DropReason::kCount); ++i) {
        const auto r = static_cast<DropReason>(i);
        const Counter c = telemetry::drop_counter(r);
        ASSERT_NE(c, Counter::kCount) << "reason " << i << " has no counter";
        const std::string_view name = telemetry::counter_name(c);
        const std::string_view reason = telemetry::to_string(r);
        EXPECT_TRUE(name.starts_with("ip.drop.")) << name;
        EXPECT_TRUE(name.ends_with(reason)) << name << " vs " << reason;
    }
}

TEST(CounterNames, AllSlotsNamedAndUnique) {
    std::set<std::string_view> seen;
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const std::string_view name = telemetry::counter_name(static_cast<Counter>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?") << "slot " << i << " unnamed";
        EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    }
}

TEST(CounterBlock, MergeIsElementWiseAndOrderInvariant) {
    CounterBlock a, b, c;
    a.add(Counter::IpTx, 3);
    a.inc(Counter::TcpSegsOut);
    b.add(Counter::IpTx, 4);
    b.add(Counter::UdpRx, 9);
    c.add(Counter::TcpSegsOut, 5);

    CounterBlock abc;
    abc.merge(a);
    abc.merge(b);
    abc.merge(c);
    CounterBlock cba;
    cba.merge(c);
    cba.merge(b);
    cba.merge(a);
    EXPECT_EQ(abc.slots, cba.slots);
    EXPECT_EQ(abc.get(Counter::IpTx), 7u);
    EXPECT_EQ(abc.get(Counter::TcpSegsOut), 6u);
    EXPECT_EQ(abc.get(Counter::UdpRx), 9u);
    EXPECT_EQ(abc.get(Counter::IpRx), 0u);
}

TEST(GaugeSeries, RingKeepsMostRecentButStatsSeeEverything) {
    telemetry::GaugeSeries s("x", 4);
    for (int i = 0; i < 10; ++i) s.record(i, static_cast<double>(i));
    EXPECT_EQ(s.total(), 10u);
    EXPECT_EQ(s.held(), 4u);
    EXPECT_EQ(s.at(0).value, 6.0);  // oldest held
    EXPECT_EQ(s.last().value, 9.0);
    EXPECT_EQ(s.stats().count(), 10u);  // moments cover evicted samples too
    EXPECT_EQ(s.stats().min(), 0.0);
    EXPECT_EQ(s.stats().max(), 9.0);
}

// --- end-to-end counter exactness ---------------------------------------

// Asserts a node's legacy IpStats view reads back the counter slots it is
// synthesized from. The counters are the only storage, so this pins the
// slot→field mapping (a swapped pair here silently mislabels every report
// and legacy consumer), not a second set of increments; the genuinely
// independent double-entry checks are the cross-layer conservation laws
// and the TCP/UDP stats below, which live in separate structs.
void expect_ip_counters_exact(const core::Node& n) {
    const CounterBlock& c = n.ip().counters();
    const ip::IpStats s = n.ip().stats();
    EXPECT_EQ(c.get(Counter::IpTx), s.datagrams_sent) << n.name();
    EXPECT_EQ(c.get(Counter::IpRx), s.datagrams_received) << n.name();
    EXPECT_EQ(c.get(Counter::IpDeliver), s.delivered_locally) << n.name();
    EXPECT_EQ(c.get(Counter::IpFwd), s.forwarded) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropChecksum), s.dropped_bad_checksum) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropMalformed), s.dropped_malformed) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropNoRoute), s.dropped_no_route) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropTtlExpired), s.dropped_ttl_expired) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropIfaceDown), s.dropped_iface_down) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropNotForUs), s.dropped_not_for_us) << n.name();
    EXPECT_EQ(c.get(Counter::IpDropReassemblyTimeout),
              n.ip().reassembly_stats().timeouts)
        << n.name();
    EXPECT_EQ(c.get(Counter::IpFragsCreated), s.fragments_created) << n.name();
    EXPECT_EQ(c.get(Counter::IpIcmpErrorsSent), s.icmp_errors_sent) << n.name();
    EXPECT_EQ(c.get(Counter::IpSourceQuenchSent), s.source_quenches_sent) << n.name();
}

TEST(CounterExactness, LossyFourHopTransferMirrorsLegacyStats) {
    // a - g0 - g1 - g2 - b: a clean edge, a lossy jittered hop with bit
    // errors, and a narrow-MTU lossy hop that forces mid-path
    // fragmentation (so reassembly and its timeout path run too).
    core::Internetwork net(777);
    core::Host& a = net.add_host("a");
    core::Gateway& g0 = net.add_gateway("g0");
    core::Gateway& g1 = net.add_gateway("g1");
    core::Gateway& g2 = net.add_gateway("g2");
    core::Host& b = net.add_host("b");

    link::LinkParams edge = link::presets::ethernet_hop();
    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.02;
    lossy.jitter = sim::milliseconds(2);
    lossy.bit_error_rate = 1e-6;
    link::LinkParams narrow = link::presets::ethernet_hop();
    narrow.mtu = 600;
    narrow.drop_probability = 0.02;
    net.connect(a, g0, edge);
    net.connect(g0, g1, lossy);
    net.connect(g1, g2, narrow);
    net.connect(g2, b, edge);
    net.use_static_routes();

    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 128 * 1024);
    sender.start();
    app::VoiceOverUdp voice(a, b, 5004);
    voice.start(sim::seconds(5));
    net.run_for(sim::seconds(60));

    // The scenario must actually exercise the interesting paths.
    ASSERT_GT(server.total_bytes_received(), 0u);
    ASSERT_GT(sender.socket_stats().retransmitted_segments, 0u);
    ASSERT_GT(g1.ip().stats().fragments_created, 0u) << "narrow hop never fragmented";
    ASSERT_GT(g0.ip().stats().forwarded, 0u);

    for (const core::Node* n : net.nodes()) expect_ip_counters_exact(*n);

    // Conservation at the gateways: every datagram a gateway receives is
    // forwarded, delivered, or dropped for a counted reason — nothing
    // else. These sum independent increment sites, so a missed or doubled
    // increment anywhere on the receive path breaks the books.
    for (const core::Gateway* g : {&g0, &g1, &g2}) {
        const CounterBlock& c = g->ip().counters();
        EXPECT_EQ(c.get(Counter::IpRx),
                  c.get(Counter::IpFwd) + c.get(Counter::IpDeliver) +
                      c.get(Counter::IpDropChecksum) + c.get(Counter::IpDropMalformed) +
                      c.get(Counter::IpDropNotForUs) + c.get(Counter::IpDropTtlExpired) +
                      c.get(Counter::IpDropNoRoute) + c.get(Counter::IpDropIfaceDown))
            << g->name();
    }
    // Cross-layer double entry at the hosts: the internet layer's tx count
    // must equal what the transports (and ICMP) handed it — TCP, UDP and
    // IP count at different layers with separate storage, so agreement
    // here is earned, not definitional. Stack-level RSTs go straight to
    // ip_.send without touching segments_sent, hence their own term.
    // (Neither host fragments locally; g1 does the fragmenting.)
    for (core::Host* h : {&a, &b}) {
        const CounterBlock& c = h->ip().counters();
        ASSERT_EQ(c.get(Counter::IpFragsCreated), 0u) << h->name();
        EXPECT_EQ(c.get(Counter::IpTx),
                  h->tcp().counters().get(Counter::TcpSegsOut) +
                      h->tcp().counters().get(Counter::TcpResetsSent) +
                      h->udp().counters().get(Counter::UdpTx) +
                      c.get(Counter::IpIcmpErrorsSent) +
                      c.get(Counter::IpSourceQuenchSent))
            << h->name();
    }
    // Host a never reassembles (everything it receives is unfragmented),
    // so its receive side balances exactly; host b consumes multiple
    // received fragments per delivered datagram, so its receive count
    // strictly exceeds its outcomes.
    {
        const CounterBlock& c = a.ip().counters();
        EXPECT_EQ(c.get(Counter::IpRx),
                  c.get(Counter::IpDeliver) + c.get(Counter::IpDropChecksum) +
                      c.get(Counter::IpDropMalformed) + c.get(Counter::IpDropNotForUs) +
                      c.get(Counter::IpDropTtlExpired) + c.get(Counter::IpDropNoRoute) +
                      c.get(Counter::IpDropIfaceDown));
        EXPECT_GT(b.ip().counters().get(Counter::IpRx),
                  b.ip().counters().get(Counter::IpDeliver));
    }

    // Destination-cache counters have no legacy mirror; sanity-bound them:
    // steady flows hit the cache, and the first lookup had to miss.
    EXPECT_GT(a.ip().counters().get(Counter::IpRouteCacheHit), 0u);
    EXPECT_GT(a.ip().counters().get(Counter::IpRouteCacheMiss), 0u);

    // TCP: host a's stack holds exactly one socket (the bulk sender keeps
    // it alive), so the stack's counter slots must equal that socket's
    // per-connection statistics plus the stack-level tallies.
    const CounterBlock& ta = a.tcp().counters();
    const tcp::TcpSocketStats& ss = sender.socket_stats();
    EXPECT_EQ(ta.get(Counter::TcpSegsOut), ss.segments_sent);
    EXPECT_EQ(ta.get(Counter::TcpRetransSegs), ss.retransmitted_segments);
    EXPECT_EQ(ta.get(Counter::TcpRtos), ss.timeouts);
    EXPECT_EQ(ta.get(Counter::TcpDupAcks), ss.duplicate_acks_received);
    EXPECT_EQ(ta.get(Counter::TcpFastRetransmits), ss.fast_retransmits);
    EXPECT_EQ(ta.get(Counter::TcpSegsIn), a.tcp().stats().segments_received);
    EXPECT_EQ(ta.get(Counter::TcpConnsOpened), a.tcp().stats().connections_opened);
    EXPECT_EQ(ta.get(Counter::TcpConnsOpened), 1u);

    const CounterBlock& tb = b.tcp().counters();
    EXPECT_EQ(tb.get(Counter::TcpSegsIn), b.tcp().stats().segments_received);
    EXPECT_EQ(tb.get(Counter::TcpConnsAccepted), b.tcp().stats().connections_accepted);
    EXPECT_EQ(tb.get(Counter::TcpDropChecksum), b.tcp().stats().dropped_bad_checksum);
    EXPECT_EQ(tb.get(Counter::TcpDropNoConnection),
              b.tcp().stats().dropped_no_connection);
    EXPECT_EQ(tb.get(Counter::TcpResetsSent), b.tcp().stats().resets_sent);

    // UDP both ends.
    EXPECT_EQ(a.udp().counters().get(Counter::UdpTx), a.udp().stats().datagrams_sent);
    EXPECT_GT(a.udp().counters().get(Counter::UdpTx), 0u);
    EXPECT_EQ(b.udp().counters().get(Counter::UdpRx),
              b.udp().stats().datagrams_received);
    EXPECT_EQ(b.udp().counters().get(Counter::UdpDropChecksum),
              b.udp().stats().dropped_bad_checksum);
    EXPECT_EQ(b.udp().counters().get(Counter::UdpDropNoSocket),
              b.udp().stats().dropped_no_socket);

    // And the registry's fold agrees with summing by hand.
    CounterBlock by_hand;
    for (const core::Node* n : net.nodes()) by_hand.merge(n->ip().counters());
    by_hand.merge(a.tcp().counters());
    by_hand.merge(a.udp().counters());
    by_hand.merge(b.tcp().counters());
    by_hand.merge(b.udp().counters());
    EXPECT_EQ(net.metrics().totals().slots, by_hand.slots);
}

// --- flight recorder ----------------------------------------------------

// One lane's records, counted by event and, for drops, by reason.
struct LaneTally {
    std::array<std::uint64_t, 5> events{};
    std::array<std::uint64_t, telemetry::kDropReasonCount> drops{};

    std::uint64_t of(telemetry::PacketEvent e) const {
        return events[static_cast<std::size_t>(e)];
    }
    std::uint64_t of(telemetry::DropReason r) const {
        return drops[static_cast<std::size_t>(r)];
    }
};

LaneTally tally(const telemetry::RecorderLane& lane) {
    LaneTally t;
    for (std::size_t i = 0; i < lane.held(); ++i) {
        const telemetry::PacketRecord& r = lane.at(i);
        ++t.events.at(r.event);
        if (r.event == static_cast<std::uint8_t>(telemetry::PacketEvent::Drop)) {
            ++t.drops.at(r.reason);
        }
    }
    return t;
}

// The recorder's oracle is the counter block: every datagram event an
// ip.* counter counts is also a record. The scenario takes every path
// that counts one: loopback, broadcasts, both send paths, forwarding
// (fast and fragmenting), reassembly, and each drop reason but the
// reassembly timeout (counted lazily, with no header at hand, so it has
// no record) — across a lossy, bit-erroring hop.
TEST(FlightRecorder, RecordsEveryDatagramEventTheIpCountersCount) {
    using telemetry::Counter;
    using telemetry::DropReason;
    using telemetry::PacketEvent;
    constexpr std::uint8_t kProto = 253;  // RFC 3692 experimental

    core::Internetwork net(4242);
    core::Host& a = net.add_host("a");
    core::Gateway& g = net.add_gateway("g");
    core::Host& b = net.add_host("b");
    core::Host& c = net.add_host("c");
    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.03;
    lossy.bit_error_rate = 1e-4;
    lossy.jitter = sim::milliseconds(1);
    link::LinkParams narrow = link::presets::ethernet_hop();
    narrow.mtu = 576;
    net.connect(a, g, lossy);                            // a:0  g:0
    net.connect(g, b, link::presets::ethernet_hop());    // g:1  b:0
    net.connect(g, c, narrow);                           // g:2  c:0
    net.use_static_routes();
    // g sends 10.99/16 on to b, which forwards nothing; a sends 10.98/16 to
    // g, which has no route for it.
    ip::Route stray;
    stray.prefix = util::Ipv4Prefix(util::Ipv4Address(10, 99, 0, 0), 16);
    stray.ifindex = 1;
    g.ip().routing_table().install(stray);
    ip::Route dead_end;
    dead_end.prefix = util::Ipv4Prefix(util::Ipv4Address(10, 98, 0, 0), 16);
    dead_end.ifindex = 0;
    a.ip().routing_table().install(dead_end);
    for (core::Node* n : net.nodes()) {
        n->ip().register_protocol(kProto, [](const ip::Ipv4Header&,
                                             std::span<const std::uint8_t>, std::size_t) {});
    }
    telemetry::FlightRecorder& rec = net.attach_flight_recorder();

    const std::vector<std::uint8_t> small(8, 0x5a);
    const std::vector<std::uint8_t> big(1000, 0xa5);  // fragments toward c
    auto headroom = [&](util::Ipv4Address dst) {
        util::ByteBuffer wire(ip::kIpv4HeaderSize, 0);
        wire.insert(wire.end(), small.begin(), small.end());
        return a.ip().send_with_headroom(kProto, dst, std::move(wire));
    };
    auto settle = [&] { net.run_for(sim::milliseconds(20)); };

    // Small datagrams both ways across the bit-erroring hop, through both
    // send paths: checksum drops at a and at g.
    for (int i = 0; i < 300; ++i) {
        a.ip().send(kProto, b.address(), small);
        headroom(b.address());
        b.ip().send(kProto, a.address(), small);
        settle();
    }
    for (int i = 0; i < 8; ++i) {
        a.ip().send(kProto, c.address(), big);  // g fragments, c reassembles
        a.ip().send(kProto, a.address(), small);                 // loopback
        g.ip().send_broadcast(kProto, 0, small);                 // to a
        g.ip().send_broadcast(kProto, 2, small);                 // to c
        ip::SendOptions once;
        once.ttl = 1;
        a.ip().send(kProto, b.address(), small, once);           // ttl at g
        a.ip().send(kProto, util::Ipv4Address(10, 98, 0, 1), small);  // no route at g
        EXPECT_FALSE(a.ip().send(kProto, util::Ipv4Address(192, 0, 2, 1), small));
        EXPECT_FALSE(headroom(util::Ipv4Address(192, 0, 2, 1)));  // no route at a
        g.ip().send(kProto, util::Ipv4Address(10, 99, 0, 1), small);  // not for b
        a.ip().interface(0).send(link::Packet{util::ByteBuffer(40, 0xff)},
                                 util::Ipv4Address{});           // malformed at g
        settle();
    }
    // Interfaces down: at the source (both send paths and a broadcast) and
    // at g's egress (the forwarding fast path, a fragmenting forward, a
    // broadcast).
    a.ip().interface(0).set_up(false);
    EXPECT_FALSE(a.ip().send(kProto, b.address(), small));
    EXPECT_FALSE(headroom(b.address()));
    EXPECT_FALSE(a.ip().send_broadcast(kProto, 0, small));
    a.ip().interface(0).set_up(true);
    g.ip().interface(2).set_up(false);
    for (int i = 0; i < 8; ++i) {
        a.ip().send(kProto, c.address(), small);
        a.ip().send(kProto, c.address(), big);
        settle();
    }
    EXPECT_FALSE(g.ip().send_broadcast(kProto, 2, small));
    g.ip().interface(2).set_up(true);
    settle();

    ASSERT_EQ(rec.total_overwritten(), 0u);
    telemetry::CounterBlock all;
    for (std::size_t i = 0; i < rec.lane_count(); ++i) {
        const core::Node& n = *net.nodes()[i];
        ASSERT_EQ(rec.lane_name(i), n.name());
        const telemetry::CounterBlock& k = n.ip().counters();
        all.merge(k);
        const LaneTally t = tally(rec.lane(i));
        EXPECT_EQ(t.of(PacketEvent::Tx), k.get(Counter::IpTx)) << n.name();
        EXPECT_EQ(t.of(PacketEvent::Fwd), k.get(Counter::IpFwd)) << n.name();
        EXPECT_EQ(t.of(PacketEvent::Deliver), k.get(Counter::IpDeliver)) << n.name();
        EXPECT_EQ(t.of(PacketEvent::Drop), t.of(DropReason::Checksum) +
                                               t.of(DropReason::Malformed) +
                                               t.of(DropReason::NoRoute) +
                                               t.of(DropReason::TtlExpired) +
                                               t.of(DropReason::IfaceDown) +
                                               t.of(DropReason::NotForUs))
            << n.name();
        for (const DropReason r : {DropReason::Checksum, DropReason::Malformed,
                                   DropReason::NoRoute, DropReason::TtlExpired,
                                   DropReason::IfaceDown, DropReason::NotForUs}) {
            EXPECT_EQ(t.of(r), k.get(telemetry::drop_counter(r)))
                << n.name() << " " << telemetry::to_string(r);
        }
        EXPECT_EQ(t.of(PacketEvent::Rx) + t.of(DropReason::Checksum) +
                      t.of(DropReason::Malformed),
                  k.get(Counter::IpRx))
            << n.name();
    }
    // The scenario really took every path.
    for (const Counter slot :
         {Counter::IpDropChecksum, Counter::IpDropMalformed, Counter::IpDropNoRoute,
          Counter::IpDropTtlExpired, Counter::IpDropIfaceDown, Counter::IpDropNotForUs,
          Counter::IpFragsCreated, Counter::IpFwd, Counter::IpDeliver}) {
        EXPECT_GT(all.get(slot), 0u) << telemetry::counter_name(slot);
    }
    EXPECT_EQ(all.get(Counter::IpDropReassemblyTimeout), 0u);
}

// a sends 50 datagrams to b, one at a time, with `lane_capacity` records
// per lane; returns a's lane as counted and as decoded.
struct LaneOutcome {
    std::string name;
    std::uint64_t total = 0;
    std::size_t held = 0;
    std::uint64_t overwritten = 0;
    std::uint64_t recorder_overwritten = 0;
    std::string text;
};

LaneOutcome fifty_datagrams(std::size_t lane_capacity) {
    core::Internetwork net(9);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();

    telemetry::FlightRecorder& rec = net.attach_flight_recorder(lane_capacity);
    const std::vector<std::uint8_t> payload(64, 0x5a);
    b.ip().register_protocol(
        253, [](const ip::Ipv4Header&, std::span<const std::uint8_t>, std::size_t) {});
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(a.ip().send(253, b.address(), payload));
        net.sim().run();
    }
    const telemetry::RecorderLane& lane = rec.lane(0);
    return LaneOutcome{rec.lane_name(0), lane.total(),           lane.held(),
                       lane.overwritten(), rec.total_overwritten(), rec.decode_lane(0)};
}

TEST(FlightRecorder, BoundedLaneOverwritesOldestAndReportsIt) {
    const LaneOutcome bounded = fifty_datagrams(/*lane_capacity=*/8);
    EXPECT_EQ(bounded.name, "a");
    EXPECT_EQ(bounded.total, 50u);  // one tx event per send
    EXPECT_EQ(bounded.held, 8u);
    EXPECT_EQ(bounded.overwritten, 42u);
    EXPECT_GT(bounded.recorder_overwritten, 0u);

    // The full transcript comes from a twin run whose lanes never lap; the
    // bounded decode renders exactly its last eight lines.
    const LaneOutcome ample = fifty_datagrams(telemetry::FlightRecorder::kDefaultLaneCapacity);
    ASSERT_EQ(ample.recorder_overwritten, 0u);
    ASSERT_EQ(ample.total, 50u);
    std::size_t cut = ample.text.size();
    for (int line = 0; line <= 8; ++line) cut = ample.text.rfind('\n', cut - 1);
    EXPECT_EQ(bounded.text, ample.text.substr(cut + 1));
}

// --- allocation freedom -------------------------------------------------

TEST(TelemetryOverhead, SteadyStateInstrumentationIsHeapSilent) {
    // The forwarding fast-path harness with the full telemetry stack live:
    // counters incrementing, a flight recorder lane per node appending, and
    // a 1 ms gauge sampler ticking. None of it may allocate once warm.
    constexpr int kHops = 4;
    core::Internetwork net(42);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    std::vector<core::Gateway*> gws;
    for (int i = 0; i < kHops; ++i) {
        gws.push_back(&net.add_gateway("g" + std::to_string(i)));
    }
    core::Node* prev = &a;
    for (auto* gw : gws) {
        net.connect(*prev, *gw, link::presets::ethernet_hop());
        prev = gw;
    }
    net.connect(*prev, b, link::presets::ethernet_hop());
    net.use_static_routes();

    net.attach_flight_recorder();
    net.enable_gauge_sampling(sim::milliseconds(1));

    std::uint64_t delivered = 0;
    b.ip().register_protocol(253, [&delivered](const ip::Ipv4Header&,
                                               std::span<const std::uint8_t>,
                                               std::size_t) { ++delivered; });
    const std::vector<std::uint8_t> payload(512, 0xab);
    const auto dst = b.address();

    // Warm every pool: packet buffers, event slots, route caches, the
    // sampler's periodic event. (run_for, not run: the sampler never lets
    // the event queue drain.)
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(a.ip().send(253, dst, payload));
        net.run_for(sim::milliseconds(5));
    }
    ASSERT_EQ(delivered, 64u);

    const std::uint64_t before = g_heap_allocs;
    constexpr std::uint64_t kRounds = 256;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        a.ip().send(253, dst, payload);
        net.run_for(sim::milliseconds(5));
    }
    const std::uint64_t delta = g_heap_allocs - before;
    EXPECT_EQ(delivered, 64u + kRounds);
    EXPECT_EQ(delta, 0u) << "telemetry allocated on the steady-state path";

    // The gauges really were sampling while we measured.
    bool sampled = false;
    const auto& reg = net.metrics();
    for (std::size_t i = 0; i < reg.series_count(); ++i) {
        if (reg.series(i).total() > 0) sampled = true;
    }
    EXPECT_TRUE(sampled);
}

// --- gauge sampling ------------------------------------------------------

TEST(Gauges, SamplerRecordsQueueDepthUtilizationAndTcpState) {
    core::Internetwork net(31);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();
    net.enable_gauge_sampling(sim::milliseconds(10));

    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 512 * 1024);
    sender.start();
    net.watch_tcp(a, sender.shared_socket(), "a.bulk");
    net.run_for(sim::seconds(5));

    const telemetry::MetricsReport report = net.metrics_report();
    auto row = [&](const std::string& name) -> const telemetry::MetricsReport::GaugeRow* {
        for (const auto& g : report.gauges)
            if (g.name == name) return &g;
        return nullptr;
    };

    const auto* util = row("a-b:a.util");
    ASSERT_NE(util, nullptr);
    EXPECT_GT(util->samples, 0u);
    EXPECT_GE(util->min, 0.0);
    EXPECT_LE(util->max, 1.0);
    EXPECT_GT(util->max, 0.0) << "a 512 KiB transfer must busy the wire";

    const auto* qdepth = row("a-b:a.qdepth");
    ASSERT_NE(qdepth, nullptr);
    EXPECT_GT(qdepth->samples, 0u);
    EXPECT_GE(qdepth->min, 0.0);

    const auto* cwnd = row("a.bulk.cwnd_bytes");
    ASSERT_NE(cwnd, nullptr);
    EXPECT_GT(cwnd->samples, 0u);
    EXPECT_GT(cwnd->max, 0.0);
    const auto* srtt = row("a.bulk.srtt_ms");
    ASSERT_NE(srtt, nullptr);
    EXPECT_GT(srtt->max, 0.0);
}

TEST(Gauges, EmptySeriesReportsNullNotZero) {
    // Satellite (f): a series with no samples must serialize as null —
    // RunningStats now reports NaN extrema when empty instead of 0.0, and
    // the JSON layer must not leak either spelling.
    core::Internetwork net(1);
    net.add_host("a");
    net.metrics().add_series("never.sampled");
    const telemetry::MetricsReport report = net.metrics_report();
    ASSERT_EQ(report.gauges.size(), 1u);
    EXPECT_EQ(report.gauges[0].samples, 0u);
    const std::string json = report.to_json();
    EXPECT_NE(json.find("{\"name\":\"never.sampled\",\"samples\":0,"
                        "\"min\":null,\"max\":null,\"mean\":null,\"last\":null}"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

// --- report determinism --------------------------------------------------

std::string run_report_scenario(std::uint64_t seed) {
    core::Internetwork net(seed);
    core::Host& a = net.add_host("a");
    core::Gateway& g = net.add_gateway("g");
    core::Host& b = net.add_host("b");
    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.03;
    lossy.jitter = sim::milliseconds(2);
    net.connect(a, g, lossy);
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();
    net.attach_flight_recorder();
    net.enable_gauge_sampling(sim::milliseconds(50));

    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 128 * 1024);
    sender.start();
    net.watch_tcp(a, sender.shared_socket(), "a.bulk");
    app::VoiceOverUdp voice(a, b, 5004);
    voice.start(sim::seconds(5));
    net.run_for(sim::seconds(30));
    return net.metrics_report().to_json();
}

TEST(Report, JsonIsDeterministicAcrossSameSeedReruns) {
    const std::string first = run_report_scenario(1234);
    const std::string second = run_report_scenario(1234);
    EXPECT_EQ(first, second);
    // And it carries real content, not an empty shell.
    EXPECT_NE(first.find("\"ip.fwd\":"), std::string::npos);
    EXPECT_NE(first.find("\"tcp.retrans_segs\":"), std::string::npos);
    EXPECT_NE(first.find("\"recorder\":{"), std::string::npos);
}

TEST(Report, EngineRowPinsTheEngineCounters) {
    // Four near events, one cancelled and one re-armed, and one far timer:
    // 4 fire, the 2 orphaned heap entries are skimmed, the heap peaks at 5
    // entries (the re-arm's second) and the far store at 1.
    core::Internetwork net(8);
    sim::Simulator& sim = net.sim();
    int fired = 0;
    auto count = [&fired] { ++fired; };
    sim.schedule_at(sim::milliseconds(1), count);
    const sim::EventId cancelled = sim.schedule_at(sim::milliseconds(2), count);
    const sim::EventId rearmed = sim.schedule_at(sim::milliseconds(3), count);
    sim.schedule_at(sim::milliseconds(4), count);
    sim.cancel(cancelled);
    ASSERT_TRUE(sim.reschedule(rearmed, sim::milliseconds(5)));
    sim.schedule_at(sim::seconds(10), count);  // beyond the near tier's ~67 ms
    net.run_for(sim::seconds(20));
    ASSERT_EQ(fired, 4);

    const telemetry::MetricsReport report = net.metrics_report();
    ASSERT_EQ(report.engines.size(), 1u);
    const sim::EngineStats& e = report.engines[0].stats;
    EXPECT_EQ(report.engines[0].shard, 0u);
    EXPECT_EQ(e.events, 4u);
    EXPECT_EQ(e.stale_skimmed, 2u);
    EXPECT_EQ(e.heap_max, 5u);
    EXPECT_EQ(e.far_max, 1u);
    EXPECT_NE(report.to_json().find("\"engines\":[{\"shard\":0,\"events\":4,"
                                    "\"stale_skimmed\":2,\"heap_max\":5,\"far_max\":1}]"),
              std::string::npos)
        << report.to_json();
    EXPECT_NE(report.to_table().find("-- engines --"), std::string::npos);
}

TEST(Report, TableListsNonzeroCountersAndRecorder) {
    core::Internetwork net(7);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();
    net.attach_flight_recorder();
    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 16 * 1024);
    sender.start();
    net.run_for(sim::seconds(10));

    const std::string table = net.metrics_report().to_table();
    EXPECT_NE(table.find("ip.tx"), std::string::npos);
    EXPECT_NE(table.find("tcp.segs_out"), std::string::npos);
    EXPECT_NE(table.find("flight recorder"), std::string::npos);
    EXPECT_EQ(table.find("ip.drop.no_route"), std::string::npos)
        << "zero counters must not clutter the table";
}

}  // namespace
}  // namespace catenet
