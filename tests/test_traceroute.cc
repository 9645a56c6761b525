// Traceroute tests: the TTL + ICMP Time Exceeded mechanism produces a
// correct hop-by-hop path map with no cooperation from the network.
#include <gtest/gtest.h>

#include <memory>

#include "app/traceroute.h"
#include "core/internetwork.h"
#include "ip/protocols.h"
#include "link/presets.h"

namespace catenet::app {
namespace {

struct TracerouteFixture : ::testing::Test {
    core::Internetwork net{91};
    core::Host& src = net.add_host("src");
    core::Host& dst = net.add_host("dst");
    core::Gateway& g1 = net.add_gateway("g1");
    core::Gateway& g2 = net.add_gateway("g2");
    core::Gateway& g3 = net.add_gateway("g3");

    void wire() {
        net.connect(src, g1, link::presets::ethernet_hop());
        net.connect(g1, g2, link::presets::ethernet_hop());
        net.connect(g2, g3, link::presets::satellite());
        net.connect(g3, dst, link::presets::ethernet_hop());
        net.use_static_routes();
    }
};

TEST_F(TracerouteFixture, DiscoversEveryHopInOrder) {
    wire();
    Traceroute trace(src, dst.address());
    bool done = false;
    trace.start([&](const std::vector<TracerouteHop>& hops) {
        done = true;
        ASSERT_EQ(hops.size(), 4u);
        EXPECT_EQ(hops[0].responder, g1.ip().primary_address());
        EXPECT_EQ(hops[1].responder, g2.ip().primary_address());
        EXPECT_EQ(hops[2].responder, g3.ip().primary_address());
        EXPECT_EQ(hops[3].responder, dst.address());
        EXPECT_TRUE(hops[3].reached_destination);
        EXPECT_FALSE(hops[2].reached_destination);
    });
    net.run_for(sim::seconds(30));
    EXPECT_TRUE(done);
}

TEST_F(TracerouteFixture, RttsReflectThePath) {
    wire();
    Traceroute trace(src, dst.address());
    trace.start({});
    net.run_for(sim::seconds(30));
    ASSERT_TRUE(trace.finished());
    const auto& hops = trace.hops();
    ASSERT_EQ(hops.size(), 4u);
    // The satellite hop (g2->g3) adds ~500 ms of RTT from hop 3 onward.
    EXPECT_LT(hops[1].rtt.millis(), 100.0);
    EXPECT_GT(hops[2].rtt.millis(), 400.0);
    EXPECT_GT(hops[3].rtt.millis(), 400.0);
}

TEST_F(TracerouteFixture, UnreachableDestinationTimesOutToMaxHops) {
    wire();
    // Default route exists, but nothing past g1 knows 192.168/16.
    ip::Route def;
    def.prefix = util::Ipv4Prefix(util::Ipv4Address(0), 0);
    def.next_hop = g1.ip().primary_address();
    def.ifindex = 0;
    def.origin = "static";
    src.ip().routing_table().install(def);

    TracerouteConfig config;
    config.max_hops = 4;
    config.probe_timeout = sim::seconds(1);
    Traceroute trace(src, util::Ipv4Address(192, 168, 1, 1), config);
    trace.start({});
    net.run_for(sim::seconds(60));
    ASSERT_TRUE(trace.finished());
    EXPECT_EQ(trace.hops().size(), 4u);
    EXPECT_FALSE(trace.hops().back().reached_destination);
    // At least the later probes must have timed out (no path).
    EXPECT_FALSE(trace.hops().back().responder.has_value());
}

TEST_F(TracerouteFixture, SingleHopPath) {
    core::Internetwork net2(92);
    core::Host& a = net2.add_host("a");
    core::Host& b = net2.add_host("b");
    net2.connect(a, b, link::presets::ethernet_hop());
    net2.use_static_routes();
    Traceroute trace(a, b.address());
    trace.start({});
    net2.run_for(sim::seconds(10));
    ASSERT_TRUE(trace.finished());
    ASSERT_EQ(trace.hops().size(), 1u);
    EXPECT_TRUE(trace.hops()[0].reached_destination);
    EXPECT_EQ(trace.hops()[0].responder, b.address());
}

TEST_F(TracerouteFixture, DestroyedWithAProbeInFlightWithdrawsItsHandlers) {
    wire();
    // A bystander observer, registered before the traceroute's, must see
    // the Time Exceeded the dead traceroute's probe provokes.
    int time_exceeded = 0;
    src.ip().add_icmp_error_handler([&](const ip::IcmpMessage& m, util::Ipv4Address) {
        if (m.type == ip::IcmpType::TimeExceeded) ++time_exceeded;
    });
    auto trace = std::make_unique<Traceroute>(src, dst.address());
    trace->start([](const std::vector<TracerouteHop>&) { FAIL() << "a dead trace completed"; });
    net.run_for(sim::microseconds(1));  // the TTL-1 probe is on the wire to g1
    trace.reset();
    net.run_for(sim::seconds(30));
    EXPECT_EQ(time_exceeded, 1) << "g1's Time Exceeded reached the host";
    EXPECT_EQ(g1.ip().stats().icmp_errors_sent, 1u);
}

TEST_F(TracerouteFixture, CompletionCallbackMayDestroyItsTraceroute) {
    wire();
    // Completion on the destination's Echo Reply runs inside the host's ICMP
    // protocol handler; at max_hops it runs inside the Time Exceeded
    // observer. Either may destroy the Traceroute that owns the handler.
    for (const int max_hops : {30, 2}) {
        TracerouteConfig config;
        config.max_hops = max_hops;
        auto trace = std::make_unique<Traceroute>(src, dst.address(), config);
        std::size_t hops_seen = 0;
        trace->start([&](const std::vector<TracerouteHop>& hops) {
            hops_seen = hops.size();
            trace.reset();
        });
        net.run_for(sim::seconds(30));
        EXPECT_EQ(trace, nullptr) << "max_hops " << max_hops;
        EXPECT_EQ(hops_seen, max_hops == 2 ? 2u : 4u) << "max_hops " << max_hops;
    }
}

}  // namespace
}  // namespace catenet::app
