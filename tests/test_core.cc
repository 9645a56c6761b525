// Core-layer tests: Internetwork construction and addressing, oracle
// routing, LAN attachment, flow classification and soft-state accounting,
// and crash semantics of gateways (fate-sharing, goal 1 / goal 7).
#include <gtest/gtest.h>

#include "core/flow.h"
#include "core/internetwork.h"
#include "ip/protocols.h"
#include "link/presets.h"

namespace catenet::core {
namespace {

using util::Ipv4Address;
using util::Ipv4Prefix;

TEST(Internetwork, AllocatesDistinctSubnetsAndAddresses) {
    Internetwork net(71);
    Host& a = net.add_host("a");
    Host& b = net.add_host("b");
    Host& c = net.add_host("c");
    net.connect(a, b, link::presets::ethernet_hop());
    net.connect(b, c, link::presets::ethernet_hop());
    EXPECT_NE(a.address(), b.address());
    EXPECT_NE(b.address(), c.address());
    // b has two interfaces on two subnets.
    EXPECT_EQ(b.ip().interface_count(), 2u);
    EXPECT_NE(b.ip().interface_address(0).value() & 0xffffff00,
              b.ip().interface_address(1).value() & 0xffffff00);
}

TEST(Internetwork, StaticRoutesReachEverySubnet) {
    // Ring of four gateways with a host on each.
    Internetwork net(72);
    std::vector<Gateway*> gws;
    std::vector<Host*> hosts;
    for (int i = 0; i < 4; ++i) {
        gws.push_back(&net.add_gateway("g" + std::to_string(i)));
        hosts.push_back(&net.add_host("h" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
        net.connect(*gws[i], *gws[(i + 1) % 4], link::presets::ethernet_hop());
        net.connect(*hosts[i], *gws[i], link::presets::ethernet_hop());
    }
    net.use_static_routes();

    int replies = 0;
    hosts[0]->ip().register_protocol(
        ip::kProtoIcmp,
        [&](const ip::Ipv4Header&, std::span<const std::uint8_t> p, std::size_t) {
            auto m = ip::decode_icmp(p);
            if (m && m->type == ip::IcmpType::EchoReply) ++replies;
        });
    for (int i = 1; i < 4; ++i) {
        hosts[0]->ip().ping(hosts[i]->address(), 1, static_cast<std::uint16_t>(i));
    }
    net.run_for(sim::seconds(2));
    EXPECT_EQ(replies, 3);
}

TEST(Internetwork, LanAttachmentsShareSubnetAndTalkDirectly) {
    Internetwork net(73);
    Host& a = net.add_host("a");
    Host& b = net.add_host("b");
    const auto lan = net.add_lan(link::presets::ethernet_lan());
    const auto addr_a = net.attach_to_lan(a, lan);
    const auto addr_b = net.attach_to_lan(b, lan);
    EXPECT_EQ(addr_a.value() & 0xffffff00, addr_b.value() & 0xffffff00);

    int delivered = 0;
    b.ip().register_protocol(200, [&](const ip::Ipv4Header&, std::span<const std::uint8_t>,
                                      std::size_t) { ++delivered; });
    a.ip().send(200, addr_b, util::ByteBuffer{1});
    net.run_for(sim::seconds(1));
    EXPECT_EQ(delivered, 1);
}

TEST(Internetwork, TotalLinkBytesAccumulates) {
    Internetwork net(74);
    Host& a = net.add_host("a");
    Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();
    b.ip().register_protocol(200, [](auto&, auto, auto) {});
    EXPECT_EQ(net.total_link_bytes(), 0u);
    a.ip().send(200, b.address(), util::ByteBuffer(100, 1));
    net.run_for(sim::seconds(1));
    EXPECT_EQ(net.total_link_bytes(), 120u) << "100 payload + 20 IP header";
}

TEST(Internetwork, DatagramReachingADownNodeIsChannelLossAndRecycled) {
    // g fails while a datagram crosses a-g. The datagram is lost on that
    // wire: counted as the a->g direction's channel loss, its buffer back
    // in the pool of the simulator that ran the arrival.
    Internetwork net(75);
    Host& a = net.add_host("a");
    Gateway& g = net.add_gateway("g");
    Host& b = net.add_host("b");
    link::LinkParams slow = link::presets::ethernet_hop();
    slow.propagation_delay = sim::milliseconds(10);
    const std::size_t ag = net.connect(a, g, slow);
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();
    ASSERT_TRUE(a.ip().send(200, b.address(), util::ByteBuffer(100, 1)));
    net.run_for(sim::milliseconds(1));  // transmitted, still propagating
    const std::uint64_t recycles = net.sim().buffer_pool().stats().recycles;
    g.set_down(true);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(net.link(ag).stats_a_to_b().packets_lost, 1u);
    EXPECT_EQ(net.link(ag).port_b().stats().packets_received, 0u);
    EXPECT_EQ(net.sim().buffer_pool().stats().recycles, recycles + 1);
}

// --- flow classification -----------------------------------------------------

TEST(FlowClassify, ExtractsFiveTupleFromTcpPacket) {
    // Build a TCP/IP packet by hand.
    util::BufferWriter transport;
    transport.put_u16(1234);  // src port
    transport.put_u16(80);    // dst port
    transport.put_zero(16);
    ip::Ipv4Header h;
    h.protocol = ip::kProtoTcp;
    h.tos = 0x08;
    h.src = Ipv4Address(10, 0, 0, 1);
    h.dst = Ipv4Address(10, 0, 1, 1);
    const auto wire = ip::encode_datagram(h, transport.data());

    const auto key = classify_packet(wire);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->src, h.src.value());
    EXPECT_EQ(key->dst, h.dst.value());
    EXPECT_EQ(key->protocol, ip::kProtoTcp);
    EXPECT_EQ(key->src_port, 1234);
    EXPECT_EQ(key->dst_port, 80);
    EXPECT_EQ(key->tos, 0x08);
}

TEST(FlowClassify, NonFirstFragmentHasNoPorts) {
    ip::Ipv4Header h;
    h.protocol = ip::kProtoUdp;
    h.fragment_offset = 100;
    h.src = Ipv4Address(1, 1, 1, 1);
    h.dst = Ipv4Address(2, 2, 2, 2);
    const auto wire = ip::encode_datagram(h, util::ByteBuffer(64, 0));
    const auto key = classify_packet(wire);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->src_port, 0);
    EXPECT_EQ(key->dst_port, 0);
}

TEST(FlowClassify, CorruptPacketRejected) {
    util::ByteBuffer junk(32, 0xff);
    EXPECT_FALSE(classify_packet(junk).has_value());
}

TEST(FlowKeyHash, DistinguishesFlows) {
    FlowKey a{1, 2, 6, 100, 200, 0};
    FlowKey b = a;
    b.dst_port = 201;
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), FlowKey{a}.hash());
}

// --- flow table -------------------------------------------------------------------

TEST(FlowTable, RecordsAndAggregates) {
    FlowTable table(sim::seconds(30));
    FlowKey k{1, 2, 6, 10, 20, 0};
    table.record(k, 100, sim::seconds(1));
    table.record(k, 200, sim::seconds(2));
    ASSERT_EQ(table.active_flows(), 1u);
    const auto snapshot = table.flows();
    const auto& rec = snapshot.front().second;
    EXPECT_EQ(rec.packets, 2u);
    EXPECT_EQ(rec.bytes, 300u);
    EXPECT_EQ(rec.first_seen, sim::seconds(1));
    EXPECT_EQ(rec.last_seen, sim::seconds(2));
}

TEST(FlowTable, IdleFlowsEvicted) {
    FlowTable table(sim::seconds(10));
    table.record(FlowKey{1, 2, 6, 1, 1, 0}, 10, sim::seconds(0));
    table.record(FlowKey{3, 4, 6, 1, 1, 0}, 10, sim::seconds(8));
    EXPECT_EQ(table.sweep(sim::seconds(12)), 1u);
    EXPECT_EQ(table.active_flows(), 1u);
    EXPECT_EQ(table.stats().flows_expired, 1u);
}

TEST(FlowTable, ClearLosesOnlyHistory) {
    FlowTable table(sim::seconds(30));
    FlowKey k{1, 2, 6, 1, 1, 0};
    table.record(k, 10, sim::seconds(1));
    table.clear();  // the crash
    EXPECT_EQ(table.active_flows(), 0u);
    table.record(k, 10, sim::seconds(2));  // rebuilt from traffic
    EXPECT_EQ(table.active_flows(), 1u);
}

// --- gateway accounting end to end ------------------------------------------------

TEST(GatewayAccounting, CountsForwardedTraffic) {
    Internetwork net(75);
    Host& a = net.add_host("a");
    Host& b = net.add_host("b");
    Gateway& g = net.add_gateway("g");
    net.connect(a, g, link::presets::ethernet_hop());
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();
    auto& flows = g.enable_flow_accounting();

    auto rx = b.udp().bind(1000);
    rx->set_handler([](auto, auto, auto) {});
    auto tx = a.udp().bind_ephemeral();
    for (int i = 0; i < 10; ++i) {
        tx->send_to(b.address(), 1000, util::ByteBuffer(100, 1));
        net.run_for(sim::milliseconds(10));
    }
    net.run_for(sim::seconds(1));
    ASSERT_EQ(flows.active_flows(), 1u);
    const auto snapshot = flows.flows();
    const auto& rec = snapshot.front().second;
    EXPECT_EQ(rec.packets, 10u);
    EXPECT_EQ(rec.bytes, 10u * 128u) << "100 payload + 8 UDP + 20 IP per packet";
}

TEST(GatewayAccounting, SoftStateSurvivesCrashFunctionally) {
    Internetwork net(76);
    Host& a = net.add_host("a");
    Host& b = net.add_host("b");
    Gateway& g = net.add_gateway("g");
    net.connect(a, g, link::presets::ethernet_hop());
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();
    auto& flows = g.enable_flow_accounting();

    auto rx = b.udp().bind(1000);
    int delivered = 0;
    rx->set_handler([&](auto, auto, auto) { ++delivered; });
    auto tx = a.udp().bind_ephemeral();
    tx->send_to(b.address(), 1000, util::ByteBuffer(10, 1));
    net.run_for(sim::seconds(1));
    EXPECT_EQ(flows.active_flows(), 1u);

    g.set_down(true);  // crash: accounting state evaporates
    net.run_for(sim::seconds(1));
    g.set_down(false);
    EXPECT_EQ(flows.active_flows(), 0u);

    tx->send_to(b.address(), 1000, util::ByteBuffer(10, 1));
    net.run_for(sim::seconds(1));
    EXPECT_EQ(delivered, 2) << "forwarding resumes without any reconstruction step";
    EXPECT_EQ(flows.active_flows(), 1u) << "accounting rebuilds itself from traffic";
}

TEST(GatewayCrash, LearnedRoutesDieStaticSurvive) {
    Internetwork net(77);
    Gateway& g = net.add_gateway("g");
    Host& h = net.add_host("h");
    net.connect(g, h, link::presets::ethernet_hop());
    ip::Route learned;
    learned.prefix = Ipv4Prefix::parse("10.9.9.0/24");
    learned.origin = "dv";
    g.ip().routing_table().install(learned);
    ip::Route configured;
    configured.prefix = Ipv4Prefix::parse("10.8.8.0/24");
    configured.origin = "static";
    g.ip().routing_table().install(configured);

    g.set_down(true);
    g.set_down(false);
    EXPECT_FALSE(g.ip().routing_table().find(learned.prefix).has_value());
    EXPECT_TRUE(g.ip().routing_table().find(configured.prefix).has_value());
}

TEST(HostDefaults, PreferGatewayNeighbor) {
    Internetwork net(78);
    Host& a = net.add_host("a");
    Host& peer = net.add_host("peer");
    Gateway& g = net.add_gateway("g");
    net.connect(a, peer, link::presets::ethernet_hop());  // host neighbor first
    net.connect(a, g, link::presets::ethernet_hop());
    net.install_host_default_routes();
    const auto def = a.ip().routing_table().lookup(Ipv4Address(99, 99, 99, 99));
    ASSERT_TRUE(def.has_value());
    EXPECT_EQ(def->next_hop, g.ip().interface_address(0))
        << "default routes should point at gateways, not peer hosts";
}

}  // namespace
}  // namespace catenet::core
