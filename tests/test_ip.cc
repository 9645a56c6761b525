// Unit tests for the internet layer: RFC 791 header codec, ICMP,
// longest-prefix routing, fragmentation/reassembly (with property sweeps),
// forwarding, TTL, and the stateless-gateway discipline.
#include <gtest/gtest.h>

#include "core/internetwork.h"
#include "ip/icmp.h"
#include "ip/ip_stack.h"
#include "ip/ipv4_header.h"
#include "ip/protocols.h"
#include "ip/reassembly.h"
#include "ip/routing_table.h"
#include "link/presets.h"

namespace catenet::ip {
namespace {

using util::Ipv4Address;
using util::Ipv4Prefix;

// --- header codec --------------------------------------------------------

TEST(Ipv4Header, EncodeDecodeRoundTrip) {
    Ipv4Header h;
    h.tos = 0x10;
    h.identification = 0x1234;
    h.dont_fragment = true;
    h.ttl = 17;
    h.protocol = kProtoTcp;
    h.src = Ipv4Address(10, 0, 0, 1);
    h.dst = Ipv4Address(10, 0, 0, 2);
    const util::ByteBuffer payload{1, 2, 3, 4, 5};
    const auto wire = encode_datagram(h, payload);
    ASSERT_EQ(wire.size(), kIpv4HeaderSize + payload.size());

    DecodedDatagram d;
    ASSERT_TRUE(decode_datagram(wire, d));
    EXPECT_EQ(d.header.tos, 0x10);
    EXPECT_EQ(d.header.identification, 0x1234);
    EXPECT_TRUE(d.header.dont_fragment);
    EXPECT_FALSE(d.header.more_fragments);
    EXPECT_EQ(d.header.ttl, 17);
    EXPECT_EQ(d.header.protocol, kProtoTcp);
    EXPECT_EQ(d.header.src, h.src);
    EXPECT_EQ(d.header.dst, h.dst);
    EXPECT_EQ(d.payload_length, payload.size());
    const auto view = payload_of(wire, d);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), view.begin()));
}

TEST(Ipv4Header, HeaderChecksumDetectsHeaderCorruption) {
    Ipv4Header h;
    h.protocol = kProtoUdp;
    h.src = Ipv4Address(1, 2, 3, 4);
    h.dst = Ipv4Address(5, 6, 7, 8);
    auto wire = encode_datagram(h, {});
    wire[8] ^= 0x40;  // flip a TTL bit
    DecodedDatagram d;
    EXPECT_FALSE(decode_datagram(wire, d));
}

TEST(Ipv4Header, RejectsNonIpv4) {
    util::ByteBuffer junk(20, 0);
    junk[0] = 0x60;  // version 6
    DecodedDatagram d;
    EXPECT_THROW(decode_datagram(junk, d), util::DecodeError);
}

TEST(Ipv4Header, RejectsBadTotalLength) {
    Ipv4Header h;
    auto wire = encode_datagram(h, util::ByteBuffer(10, 0));
    wire.resize(20);  // truncate payload below total_length
    DecodedDatagram d;
    EXPECT_THROW(decode_datagram(wire, d), util::DecodeError);
}

TEST(Ipv4Header, OversizeThrows) {
    Ipv4Header h;
    EXPECT_THROW(encode_datagram(h, util::ByteBuffer(65536, 0)), std::length_error);
}

TEST(Ipv4Header, FragmentFieldsRoundTrip) {
    Ipv4Header h;
    h.more_fragments = true;
    h.fragment_offset = 185;  // 1480 bytes
    const auto wire = encode_datagram(h, {});
    DecodedDatagram d;
    ASSERT_TRUE(decode_datagram(wire, d));
    EXPECT_TRUE(d.header.more_fragments);
    EXPECT_EQ(d.header.fragment_offset, 185);
    EXPECT_EQ(d.header.payload_offset_bytes(), 1480u);
    EXPECT_TRUE(d.header.is_fragment());
}

// --- ICMP ------------------------------------------------------------------

TEST(Icmp, EchoRoundTrip) {
    const auto req = IcmpMessage::echo_request(0x0102, 7, {9, 9, 9});
    const auto wire = encode_icmp(req);
    const auto back = decode_icmp(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, IcmpType::EchoRequest);
    EXPECT_EQ(back->echo_id(), 0x0102);
    EXPECT_EQ(back->echo_seq(), 7);
    EXPECT_EQ(back->body, (util::ByteBuffer{9, 9, 9}));
}

TEST(Icmp, ChecksumFailureReturnsNullopt) {
    auto wire = encode_icmp(IcmpMessage::echo_request(1, 1, {}));
    wire[0] ^= 0xff;
    EXPECT_FALSE(decode_icmp(wire).has_value());
}

TEST(Icmp, ErrorQuotesOffendingDatagram) {
    Ipv4Header h;
    h.protocol = kProtoUdp;
    h.src = Ipv4Address(1, 1, 1, 1);
    h.dst = Ipv4Address(2, 2, 2, 2);
    const auto offending = encode_datagram(h, util::ByteBuffer(100, 0xcc));
    const auto err = IcmpMessage::error(IcmpType::TimeExceeded, 0, offending);
    EXPECT_EQ(err.body.size(), 28u) << "header + 8 bytes";
    EXPECT_TRUE(std::equal(err.body.begin(), err.body.end(), offending.begin()));
}

// --- routing table -------------------------------------------------------------

TEST(RoutingTable, LongestPrefixWins) {
    RoutingTable table;
    Route wide{Ipv4Prefix::parse("10.0.0.0/8"), Ipv4Address(1, 1, 1, 1), 0, 0, "static"};
    Route narrow{Ipv4Prefix::parse("10.1.0.0/16"), Ipv4Address(2, 2, 2, 2), 1, 0, "static"};
    table.install(wide);
    table.install(narrow);
    auto hit = table.lookup(Ipv4Address(10, 1, 5, 5));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->next_hop, Ipv4Address(2, 2, 2, 2));
    hit = table.lookup(Ipv4Address(10, 2, 5, 5));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->next_hop, Ipv4Address(1, 1, 1, 1));
}

TEST(RoutingTable, DefaultRouteCatchesAll) {
    RoutingTable table;
    table.install(Route{Ipv4Prefix(Ipv4Address(0), 0), Ipv4Address(9, 9, 9, 9), 3, 0,
                        "static"});
    auto hit = table.lookup(Ipv4Address(123, 45, 67, 89));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ifindex, 3u);
}

TEST(RoutingTable, InstallReplacesSamePrefix) {
    RoutingTable table;
    const auto p = Ipv4Prefix::parse("10.0.0.0/24");
    table.install(Route{p, Ipv4Address(1, 1, 1, 1), 0, 5, "dv"});
    table.install(Route{p, Ipv4Address(2, 2, 2, 2), 1, 3, "dv"});
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 7))->metric, 3u);
}

TEST(RoutingTable, RemoveByOrigin) {
    RoutingTable table;
    table.install(Route{Ipv4Prefix::parse("10.0.0.0/24"), {}, 0, 0, "connected"});
    table.install(Route{Ipv4Prefix::parse("10.0.1.0/24"), {}, 0, 2, "dv"});
    table.install(Route{Ipv4Prefix::parse("10.0.2.0/24"), {}, 0, 2, "dv"});
    table.remove_by_origin("dv");
    EXPECT_EQ(table.size(), 1u);
    EXPECT_TRUE(table.find(Ipv4Prefix::parse("10.0.0.0/24")).has_value());
}

TEST(RoutingTable, NoMatchReturnsNullopt) {
    RoutingTable table;
    table.install(Route{Ipv4Prefix::parse("10.0.0.0/24"), {}, 0, 0, "connected"});
    EXPECT_FALSE(table.lookup(Ipv4Address(11, 0, 0, 1)).has_value());
}

// --- reassembly -----------------------------------------------------------------

struct ReassemblyFixture : ::testing::Test {
    sim::Simulator sim;
    Reassembler reasm{sim, sim::seconds(15)};

    Ipv4Header frag_header(std::uint16_t id, std::size_t offset_bytes, bool more) {
        Ipv4Header h;
        h.identification = id;
        h.protocol = kProtoUdp;
        h.src = Ipv4Address(1, 1, 1, 1);
        h.dst = Ipv4Address(2, 2, 2, 2);
        h.fragment_offset = static_cast<std::uint16_t>(offset_bytes / 8);
        h.more_fragments = more;
        return h;
    }
};

TEST_F(ReassemblyFixture, InOrderFragmentsComplete) {
    util::ByteBuffer part1(16, 0xaa), part2(8, 0xbb);
    EXPECT_FALSE(reasm.add_fragment(frag_header(1, 0, true), part1).has_value());
    auto done = reasm.add_fragment(frag_header(1, 16, false), part2);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->size(), 24u);
    EXPECT_EQ((*done)[0], 0xaa);
    EXPECT_EQ((*done)[16], 0xbb);
    EXPECT_EQ(reasm.pending(), 0u);
}

TEST_F(ReassemblyFixture, OutOfOrderFragmentsComplete) {
    util::ByteBuffer part1(16, 0x11), part2(16, 0x22), part3(4, 0x33);
    EXPECT_FALSE(reasm.add_fragment(frag_header(2, 32, false), part3).has_value());
    EXPECT_FALSE(reasm.add_fragment(frag_header(2, 0, true), part1).has_value());
    auto done = reasm.add_fragment(frag_header(2, 16, true), part2);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->size(), 36u);
}

TEST_F(ReassemblyFixture, DuplicateFragmentsAreIdempotent) {
    util::ByteBuffer part(8, 0x44);
    reasm.add_fragment(frag_header(3, 0, true), part);
    reasm.add_fragment(frag_header(3, 0, true), part);  // dup
    auto done = reasm.add_fragment(frag_header(3, 8, false), part);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->size(), 16u);
}

TEST_F(ReassemblyFixture, DistinctKeysDoNotMix) {
    util::ByteBuffer part(8, 0x55);
    reasm.add_fragment(frag_header(10, 0, true), part);
    auto other = frag_header(11, 8, false);
    EXPECT_FALSE(reasm.add_fragment(other, part).has_value())
        << "different identification = different datagram";
    EXPECT_EQ(reasm.pending(), 2u);
}

TEST_F(ReassemblyFixture, TimeoutDiscardsPartialDatagram) {
    util::ByteBuffer part(8, 0x66);
    reasm.add_fragment(frag_header(4, 0, true), part);
    sim.run_until(sim::seconds(20));
    // Trigger the sweep with an unrelated fragment.
    reasm.add_fragment(frag_header(5, 0, true), part);
    EXPECT_EQ(reasm.stats().timeouts, 1u);
    // The late tail of datagram 4 can no longer complete it.
    EXPECT_FALSE(reasm.add_fragment(frag_header(4, 8, false), part).has_value());
}

// Property sweep: fragmentation at one MTU then reassembly restores the
// exact payload, across payload sizes and MTUs (including multi-level
// fragmentation through two different-MTU hops, exercised at stack level).
struct FragParam {
    std::size_t payload;
    std::size_t mtu;
};

class FragmentationProperty : public ::testing::TestWithParam<FragParam> {};

TEST_P(FragmentationProperty, StackFragmentsAndPeerReassembles) {
    sim::Simulator sim;
    util::Rng rng(7);
    link::LinkParams params = link::presets::ethernet_hop();
    params.mtu = GetParam().mtu;
    link::PointToPointLink link(sim, rng, params);

    IpStack a(sim, "a");
    IpStack b(sim, "b");
    a.add_interface(link.port_a(), Ipv4Address(10, 0, 0, 1),
                    Ipv4Prefix::parse("10.0.0.0/24"));
    b.add_interface(link.port_b(), Ipv4Address(10, 0, 0, 2),
                    Ipv4Prefix::parse("10.0.0.0/24"));

    util::ByteBuffer payload(GetParam().payload);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }

    util::ByteBuffer received;
    b.register_protocol(200, [&](const Ipv4Header&, std::span<const std::uint8_t> data,
                                 std::size_t) { received = util::to_buffer(data); });
    ASSERT_TRUE(a.send(200, Ipv4Address(10, 0, 0, 2), payload));
    sim.run();
    EXPECT_EQ(received, payload);
    if (GetParam().payload + kIpv4HeaderSize > GetParam().mtu) {
        EXPECT_GT(a.stats().fragments_created, 0u);
        EXPECT_EQ(b.reassembly_stats().datagrams_completed, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FragmentationProperty,
    ::testing::Values(FragParam{100, 1500}, FragParam{1480, 1500}, FragParam{1481, 1500},
                      FragParam{3000, 1500}, FragParam{8192, 1500}, FragParam{3000, 576},
                      FragParam{8192, 576}, FragParam{517, 512}, FragParam{4096, 512},
                      FragParam{65000, 1500}, FragParam{1, 512}, FragParam{556, 576}));

// --- stack behaviours --------------------------------------------------------

struct TwoHostsOneGateway : ::testing::Test {
    core::Internetwork net{11};
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& g = net.add_gateway("g");

    void wire(link::LinkParams left = link::presets::ethernet_hop(),
              link::LinkParams right = link::presets::ethernet_hop()) {
        net.connect(a, g, left);
        net.connect(g, b, right);
        net.use_static_routes();
    }
};

TEST_F(TwoHostsOneGateway, ForwardingDecrementsTtl) {
    wire();
    std::uint8_t seen_ttl = 0;
    b.ip().register_protocol(200, [&](const Ipv4Header& h, std::span<const std::uint8_t>,
                                      std::size_t) { seen_ttl = h.ttl; });
    ip::SendOptions opts;
    opts.ttl = 10;
    a.ip().send(200, b.address(), util::ByteBuffer{1}, opts);
    net.sim().run();
    EXPECT_EQ(seen_ttl, 9);
}

TEST_F(TwoHostsOneGateway, TtlExpiryGeneratesTimeExceeded) {
    wire();
    bool got_time_exceeded = false;
    a.ip().add_icmp_error_handler([&](const IcmpMessage& msg, Ipv4Address from) {
        if (msg.type == IcmpType::TimeExceeded) {
            got_time_exceeded = true;
            EXPECT_EQ(from, g.ip().primary_address());
        }
    });
    ip::SendOptions opts;
    opts.ttl = 1;  // dies at the gateway
    a.ip().send(200, b.address(), util::ByteBuffer{1}, opts);
    net.sim().run();
    EXPECT_TRUE(got_time_exceeded);
}

TEST_F(TwoHostsOneGateway, NoRouteGeneratesUnreachable) {
    wire();
    bool got_unreachable = false;
    a.ip().add_icmp_error_handler([&](const IcmpMessage& msg, Ipv4Address) {
        if (msg.type == IcmpType::DestinationUnreachable) got_unreachable = true;
    });
    // Host a has a route for 10/8-space subnets only via static oracle;
    // use an address in no subnet. Host's routing: only known subnets.
    a.ip().send(200, Ipv4Address(192, 168, 99, 99), util::ByteBuffer{1});
    net.sim().run();
    // The send fails locally (no route at a): acceptable alternative to a
    // remote unreachable. Force the remote case via default route.
    ip::Route def;
    def.prefix = Ipv4Prefix(Ipv4Address(0), 0);
    def.next_hop = g.ip().primary_address();
    def.ifindex = 0;
    def.origin = "static";
    a.ip().routing_table().install(def);
    ASSERT_TRUE(a.ip().send(200, Ipv4Address(192, 168, 99, 99), util::ByteBuffer{1}));
    net.sim().run();
    EXPECT_TRUE(got_unreachable);
}

TEST_F(TwoHostsOneGateway, GatewayHoldsNoConnectionState) {
    // The fate-sharing invariant, asserted structurally: a gateway's
    // entire mutable state is its routing table, queues and counters.
    // Reassembly buffers exist only for datagrams addressed TO it.
    wire(link::presets::ethernet_hop(), link::presets::packet_radio());
    // Large transfers through the gateway must not create reassembly state
    // there (fragments pass through; only the destination reassembles).
    util::ByteBuffer payload(4000, 0x77);
    b.ip().register_protocol(200, [](const Ipv4Header&, std::span<const std::uint8_t>,
                                     std::size_t) {});
    a.ip().send(200, b.address(), payload);
    net.run_for(sim::seconds(2));
    EXPECT_EQ(g.ip().reassembly_stats().fragments_received, 0u);
    EXPECT_GT(g.ip().stats().forwarded, 0u);
}

TEST_F(TwoHostsOneGateway, MixedMtuPathFragmentsAtGateway) {
    wire(link::presets::ethernet_hop(), link::presets::packet_radio());  // 1500 -> 512
    util::ByteBuffer payload(1400, 0x11);
    util::ByteBuffer received;
    b.ip().register_protocol(200, [&](const Ipv4Header&, std::span<const std::uint8_t> d,
                                      std::size_t) { received = util::to_buffer(d); });
    a.ip().send(200, b.address(), payload);
    net.run_for(sim::seconds(2));
    EXPECT_EQ(received, payload);
    EXPECT_GT(g.ip().stats().fragments_created, 0u) << "gateway must refragment";
}

TEST_F(TwoHostsOneGateway, DontFragmentElicitsFragNeeded) {
    wire(link::presets::ethernet_hop(), link::presets::packet_radio());
    bool got_frag_needed = false;
    a.ip().add_icmp_error_handler([&](const IcmpMessage& msg, Ipv4Address) {
        if (msg.type == IcmpType::DestinationUnreachable &&
            msg.code == kUnreachFragNeeded) {
            got_frag_needed = true;
        }
    });
    ip::SendOptions opts;
    opts.dont_fragment = true;
    a.ip().send(200, b.address(), util::ByteBuffer(1400, 0), opts);
    net.run_for(sim::seconds(2));
    EXPECT_TRUE(got_frag_needed);
}

TEST_F(TwoHostsOneGateway, DownNodeDiscardsSilently) {
    wire();
    int delivered = 0;
    b.ip().register_protocol(200, [&](const Ipv4Header&, std::span<const std::uint8_t>,
                                      std::size_t) { ++delivered; });
    g.set_down(true);
    a.ip().send(200, b.address(), util::ByteBuffer{1});
    net.run_for(sim::seconds(1));
    EXPECT_EQ(delivered, 0);
    g.set_down(false);
    a.ip().send(200, b.address(), util::ByteBuffer{1});
    net.run_for(sim::seconds(1));
    EXPECT_EQ(delivered, 1);
}

TEST_F(TwoHostsOneGateway, PingEndToEnd) {
    wire();
    int replies = 0;
    a.ip().register_protocol(kProtoIcmp, [&](const Ipv4Header&,
                                             std::span<const std::uint8_t> payload,
                                             std::size_t) {
        auto msg = decode_icmp(payload);
        if (msg && msg->type == IcmpType::EchoReply) ++replies;
    });
    for (std::uint16_t i = 0; i < 5; ++i) a.ip().ping(b.address(), 1, i);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(replies, 5);
}

TEST_F(TwoHostsOneGateway, UnknownProtocolElicitsProtocolUnreachable) {
    wire();
    bool got = false;
    a.ip().add_icmp_error_handler([&](const IcmpMessage& msg, Ipv4Address) {
        if (msg.type == IcmpType::DestinationUnreachable &&
            msg.code == kUnreachProtocol) {
            got = true;
        }
    });
    a.ip().send(123, b.address(), util::ByteBuffer{1, 2, 3});
    net.run_for(sim::seconds(1));
    EXPECT_TRUE(got);
}

TEST(IpStackLocal, LoopbackDeliveryWithoutInterfaces) {
    core::Internetwork net(12);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    int delivered = 0;
    a.ip().register_protocol(200, [&](const Ipv4Header& h, std::span<const std::uint8_t>,
                                      std::size_t) {
        ++delivered;
        EXPECT_EQ(h.dst, a.address());
    });
    a.ip().send(200, a.address(), util::ByteBuffer{5});
    net.sim().run();
    EXPECT_EQ(delivered, 1);
}

TEST(IpStackBroadcast, ReachesAllLanStationsAndIsNotForwarded) {
    core::Internetwork net(13);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& g = net.add_gateway("g");
    core::Host& far = net.add_host("far");
    const auto lan = net.add_lan(link::presets::ethernet_lan());
    net.attach_to_lan(a, lan);
    net.attach_to_lan(b, lan);
    net.attach_to_lan(g, lan);
    net.connect(g, far, link::presets::ethernet_hop());
    net.use_static_routes();

    int b_got = 0, far_got = 0;
    b.ip().register_protocol(201, [&](const Ipv4Header&, std::span<const std::uint8_t>,
                                      std::size_t) { ++b_got; });
    far.ip().register_protocol(201, [&](const Ipv4Header&, std::span<const std::uint8_t>,
                                        std::size_t) { ++far_got; });
    a.ip().send_broadcast(201, 0, util::ByteBuffer{1});
    net.run_for(sim::seconds(1));
    EXPECT_EQ(b_got, 1);
    EXPECT_EQ(far_got, 0) << "broadcasts must never cross a gateway";
}

}  // namespace
}  // namespace catenet::ip
