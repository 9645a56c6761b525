// Routing at scale: the historical infinity=16 diameter wall, convergence
// on randomized topologies (property sweep), and routing-protocol traffic
// overhead growth.
#include <gtest/gtest.h>

#include "core/internetwork.h"
#include "ip/protocols.h"
#include "ip/routing_table.h"
#include "link/presets.h"

namespace catenet::routing {
namespace {

DvConfig fast_dv(std::uint32_t infinity = 16) {
    DvConfig c;
    c.period = sim::seconds(1);
    c.route_timeout = sim::milliseconds(3500);
    c.infinity = infinity;
    return c;
}

TEST(DvScale, HistoricalInfinity16CapsTheDiameter) {
    // A 20-gateway chain: with infinity 16, the far end's subnet is
    // unreachable from the near end (metric saturates); with a larger
    // infinity the same topology converges. This is the RIP-era scaling
    // wall that motivated richer routing, noted in E4.
    for (const std::uint32_t infinity : {16u, 64u}) {
        core::Internetwork net(111);
        core::Host& near = net.add_host("near");
        core::Host& far = net.add_host("far");
        std::vector<core::Gateway*> gws;
        for (int i = 0; i < 20; ++i) {
            gws.push_back(&net.add_gateway("g" + std::to_string(i)));
            if (i > 0) net.connect(*gws[i - 1], *gws[i], link::presets::ethernet_hop());
        }
        net.connect(near, *gws.front(), link::presets::ethernet_hop());
        net.connect(far, *gws.back(), link::presets::ethernet_hop());
        for (auto* g : gws) g->enable_distance_vector(fast_dv(infinity));
        net.install_host_default_routes();
        net.run_for(sim::seconds(60));

        const auto route = gws.front()->ip().routing_table().lookup(far.address());
        if (infinity == 16) {
            EXPECT_FALSE(route.has_value()) << "metric must saturate at 16";
        } else {
            ASSERT_TRUE(route.has_value()) << "larger infinity must converge";
            // far's subnet is connected at g19 and advertised at metric 0,
            // so g0 sees it 19 advertisement hops later.
            EXPECT_EQ(route->metric, 19u);
        }
    }
}

// Property: on a random connected gateway graph, DV converges to full
// host-to-host reachability, and reachability actually works (pings).
class RandomGraphConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphConvergence, ConvergesAndRoutes) {
    const std::uint64_t seed = GetParam();
    core::Internetwork net(seed);
    util::Rng rng(seed * 31 + 7);

    constexpr int kGateways = 8;
    std::vector<core::Gateway*> gws;
    for (int i = 0; i < kGateways; ++i) {
        gws.push_back(&net.add_gateway("g" + std::to_string(i)));
    }
    // Random spanning tree (guarantees connectivity) + extra chords.
    for (int i = 1; i < kGateways; ++i) {
        const auto parent = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(i - 1)));
        net.connect(*gws[parent], *gws[i], link::presets::ethernet_hop());
    }
    for (int c = 0; c < 4; ++c) {
        const auto x = static_cast<int>(rng.uniform(0, kGateways - 1));
        const auto y = static_cast<int>(rng.uniform(0, kGateways - 1));
        if (x != y) net.connect(*gws[x], *gws[y], link::presets::ethernet_hop());
    }
    std::vector<core::Host*> hosts;
    for (int i = 0; i < 3; ++i) {
        hosts.push_back(&net.add_host("h" + std::to_string(i)));
        const auto at = static_cast<int>(rng.uniform(0, kGateways - 1));
        net.connect(*hosts.back(), *gws[at], link::presets::ethernet_hop());
    }
    for (auto* g : gws) g->enable_distance_vector(fast_dv(64));
    net.install_host_default_routes();
    net.run_for(sim::seconds(30));

    // All-pairs ping.
    int replies = 0;
    int expected = 0;
    for (auto* src : hosts) {
        src->ip().register_protocol(
            ip::kProtoIcmp,
            [&replies](const ip::Ipv4Header&, std::span<const std::uint8_t> p,
                       std::size_t) {
                auto m = ip::decode_icmp(p);
                if (m && m->type == ip::IcmpType::EchoReply) ++replies;
            });
    }
    for (auto* src : hosts) {
        for (auto* dst : hosts) {
            if (src == dst) continue;
            ASSERT_TRUE(src->ip().ping(dst->address(), 1, 1)) << "seed " << seed;
            ++expected;
        }
    }
    net.run_for(sim::seconds(5));
    EXPECT_EQ(replies, expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphConvergence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DvOverhead, UpdateTrafficScalesWithTopologySize) {
    // Routing chatter is the standing cost of distributed management.
    std::vector<std::uint64_t> totals;
    for (int n : {3, 6, 12}) {
        core::Internetwork net(112);
        std::vector<core::Gateway*> gws;
        for (int i = 0; i < n; ++i) {
            gws.push_back(&net.add_gateway("g" + std::to_string(i)));
            if (i > 0) net.connect(*gws[i - 1], *gws[i], link::presets::ethernet_hop());
        }
        for (auto* g : gws) g->enable_distance_vector(fast_dv(64));
        net.run_for(sim::seconds(30));
        std::uint64_t updates = 0;
        for (auto* g : gws) updates += g->distance_vector()->stats().updates_sent;
        totals.push_back(updates);
    }
    EXPECT_LT(totals[0], totals[1]);
    EXPECT_LT(totals[1], totals[2]);
}

TEST(DvTriggered, BadNewsPropagatesFastOnlyWithTriggers) {
    // Chain g3 - g1 - g2(h). When g1-g2 dies, g1 invalidates instantly
    // (carrier loss); how fast g3 learns depends on triggered updates:
    // with them the poison arrives in milliseconds, without them g3 waits
    // for g1's next 10 s periodic.
    for (const bool triggered : {true, false}) {
        core::Internetwork net(113);
        core::Gateway& g1 = net.add_gateway("g1");
        core::Gateway& g2 = net.add_gateway("g2");
        core::Gateway& g3 = net.add_gateway("g3");
        core::Host& h = net.add_host("h");
        net.connect(g3, g1, link::presets::ethernet_hop());
        const auto direct = net.connect(g1, g2, link::presets::ethernet_hop());
        net.connect(g2, h, link::presets::ethernet_hop());
        DvConfig config;
        config.period = sim::seconds(10);  // slow periodic
        config.route_timeout = sim::seconds(35);
        config.triggered_updates = triggered;
        g1.enable_distance_vector(config);
        g2.enable_distance_vector(config);
        g3.enable_distance_vector(config);
        net.run_for(sim::seconds(40));
        ASSERT_TRUE(g3.ip().routing_table().lookup(h.address()).has_value());

        net.fail_link(direct);
        const auto before = net.sim().now();
        double lost_at = -1;
        for (int tick = 0; tick < 60; ++tick) {
            net.run_for(sim::milliseconds(250));
            if (!g3.ip().routing_table().lookup(h.address()).has_value()) {
                lost_at = (net.sim().now() - before).seconds();
                break;
            }
        }
        ASSERT_GE(lost_at, 0.0) << "triggered=" << triggered;
        if (triggered) {
            EXPECT_LT(lost_at, 2.0) << "triggered poison must beat the 10 s period";
        } else {
            EXPECT_GT(lost_at, 4.0) << "without triggers, the period dominates";
        }
    }
}

// --- RoutingTable structure at population scale ------------------------------
//
// The flat sorted-array FIB (binary-search install/find, 33-bit length
// mask, bulk_load batch path) must behave exactly like the naive table it
// replaced, at sizes where the difference matters.

TEST(FibBulkLoad, MatchesSequentialInstalls) {
    // The same 4096-route set loaded both ways must produce identical
    // snapshots and identical lookups.
    std::vector<ip::Route> batch;
    for (std::uint32_t i = 0; i < 4096; ++i) {
        ip::Route r;
        r.prefix = util::Ipv4Prefix(util::Ipv4Address(10, (i >> 8) & 0xff, i & 0xff, 0),
                                    24);
        r.next_hop = util::Ipv4Address(192, 168, 0, 1 + (i % 200));
        r.ifindex = i % 4;
        r.origin = "static";
        batch.push_back(r);
    }
    ip::RoutingTable sequential;
    for (const auto& r : batch) sequential.install(r);
    ip::RoutingTable bulk;
    bulk.bulk_load(batch);

    ASSERT_EQ(sequential.size(), bulk.size());
    const auto a = sequential.routes();
    const auto b = bulk.routes();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].prefix, b[i].prefix);
        EXPECT_EQ(a[i].next_hop, b[i].next_hop);
        EXPECT_EQ(a[i].ifindex, b[i].ifindex);
    }
    for (std::uint32_t i = 0; i < 4096; i += 37) {
        const util::Ipv4Address dst(10, (i >> 8) & 0xff, i & 0xff, 99);
        const auto ra = sequential.lookup(dst);
        const auto rb = bulk.lookup(dst);
        ASSERT_TRUE(ra.has_value());
        ASSERT_TRUE(rb.has_value());
        EXPECT_EQ(ra->next_hop, rb->next_hop);
    }
}

TEST(FibBulkLoad, LaterDuplicateWinsLikeSequentialInstall) {
    ip::Route first;
    first.prefix = util::Ipv4Prefix::parse("10.1.0.0/16");
    first.next_hop = util::Ipv4Address(1, 1, 1, 1);
    ip::Route second = first;
    second.next_hop = util::Ipv4Address(2, 2, 2, 2);

    ip::RoutingTable table;
    table.bulk_load(std::vector<ip::Route>{first, second});
    EXPECT_EQ(table.size(), 1u);
    const auto found = table.find(first.prefix);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->next_hop, second.next_hop) << "batch order is install order";
}

TEST(FibBulkLoad, UpdatesExistingRoutesInPlace) {
    // A batch that names a prefix the table holds replaces that route
    // rather than adding a second one, and the whole batch costs one
    // generation bump.
    ip::RoutingTable table;
    ip::Route seed;
    seed.prefix = util::Ipv4Prefix::parse("10.5.0.0/16");
    seed.next_hop = util::Ipv4Address(1, 1, 1, 1);
    table.install(seed);
    ASSERT_TRUE(table.find(seed.prefix).has_value());
    const auto generation = table.generation();

    ip::Route replacement = seed;
    replacement.next_hop = util::Ipv4Address(9, 9, 9, 9);
    ip::Route fresh;
    fresh.prefix = util::Ipv4Prefix::parse("10.6.0.0/16");
    fresh.next_hop = util::Ipv4Address(8, 8, 8, 8);
    table.bulk_load(std::vector<ip::Route>{replacement, fresh});

    const auto found = table.find(seed.prefix);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, replacement) << "the batch's route replaced the seed";
    EXPECT_EQ(*table.lookup(util::Ipv4Address(10, 5, 1, 1)), replacement);
    EXPECT_EQ(*table.find(fresh.prefix), fresh);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.generation(), generation + 1) << "one bump per batch";
}

TEST(FibBinarySearch, LongestPrefixWinsAcrossLengths) {
    ip::RoutingTable table;
    const auto add = [&](const char* prefix, std::uint8_t octet) {
        ip::Route r;
        r.prefix = util::Ipv4Prefix::parse(prefix);
        r.next_hop = util::Ipv4Address(octet, octet, octet, octet);
        table.install(r);
    };
    add("0.0.0.0/0", 1);
    add("10.0.0.0/8", 2);
    add("10.20.0.0/16", 3);
    add("10.20.30.0/24", 4);

    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 20, 30, 5))->next_hop.value(),
              util::Ipv4Address(4, 4, 4, 4).value());
    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 20, 99, 5))->next_hop.value(),
              util::Ipv4Address(3, 3, 3, 3).value());
    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 99, 99, 5))->next_hop.value(),
              util::Ipv4Address(2, 2, 2, 2).value());
    EXPECT_EQ(table.lookup(util::Ipv4Address(99, 99, 99, 5))->next_hop.value(),
              util::Ipv4Address(1, 1, 1, 1).value());

    // Removing the most specific falls back to the next length, and the
    // occupancy mask must not strand the now-empty /24 bucket.
    EXPECT_TRUE(table.remove(util::Ipv4Prefix::parse("10.20.30.0/24")));
    EXPECT_EQ(table.lookup(util::Ipv4Address(10, 20, 30, 5))->next_hop.value(),
              util::Ipv4Address(3, 3, 3, 3).value());
    EXPECT_FALSE(table.remove(util::Ipv4Prefix::parse("10.20.30.0/24")));
}

TEST(FibBinarySearch, RemoveByOriginRebuildsCounts) {
    ip::RoutingTable table;
    for (std::uint32_t i = 0; i < 64; ++i) {
        ip::Route r;
        r.prefix = util::Ipv4Prefix(util::Ipv4Address(10, 0, i, 0), 24);
        r.next_hop = util::Ipv4Address(1, 1, 1, 1);
        r.origin = (i % 2 == 0) ? "dv" : "static";
        table.install(r);
    }
    table.remove_by_origin("dv");
    EXPECT_EQ(table.size(), 32u);
    EXPECT_FALSE(table.lookup(util::Ipv4Address(10, 0, 2, 9)).has_value());
    EXPECT_TRUE(table.lookup(util::Ipv4Address(10, 0, 3, 9)).has_value());
}

}  // namespace
}  // namespace catenet::routing
