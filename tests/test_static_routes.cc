// The static-route pass (Internetwork::use_static_routes) against a
// reference copy of the plain pass it replaced: one BFS per origin over
// the store's incidence lists, then every subnet in allocation order,
// routed toward its nearest attached node (the first winning ties) with
// one install() per route. The pass under test builds its targets once,
// in table order, and bulk-loads one sorted batch per origin; every
// node's table must come out equal, route for route, on generated
// internets (compact at 1 and 2 shards, materialized with multi-station
// LANs) and on a hand-built one whose subnets are allocated out of table
// order.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/internetwork.h"
#include "core/topology_gen.h"
#include "ip/routing_table.h"
#include "link/presets.h"
#include "sim/parallel.h"

namespace catenet::core {
namespace {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

/// One origin's table as the reference pass leaves it.
struct Expected {
    Node* node = nullptr;
    ip::RoutingTable table;   ///< a copy of the node's table, plus the routes
    std::size_t installs = 0; ///< routes the reference installed
};

/// The reference pass, run over copies of every origin's current table.
std::vector<Expected> reference_static_routes(const Internetwork& net) {
    const TopologyStore& store = net.topology();
    const std::size_t n = store.node_count();
    std::vector<Expected> out;
    for (NodeId origin = 0; origin < n; ++origin) {
        Node* node = store.object(origin);
        if (node == nullptr) continue;  // a compact leaf host routes by its LAN record
        Expected expected{node, node->ip().routing_table(), 0};

        // BFS recording each reached node's first edge out of the origin;
        // neighbors in chronological order.
        std::vector<std::uint32_t> dist(n, kInf);
        std::vector<const Incidence*> first_hop(n, nullptr);
        std::vector<NodeId> frontier{origin};
        dist[origin] = 0;
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const NodeId current = frontier[head];
            for (const Incidence& edge : store.incidences(current)) {
                if (dist[edge.peer] != kInf) continue;
                dist[edge.peer] = dist[current] + 1;
                first_hop[edge.peer] = current == origin ? &edge : first_hop[current];
                frontier.push_back(edge.peer);
            }
        }

        TopologyStore::Attachment scratch[2];
        for (const TopologyStore::SubnetRef& ref : store.subnets()) {
            const auto attached = store.subnet_attachments(ref, scratch);
            bool connected = false;
            for (const TopologyStore::Attachment& att : attached) {
                if (att.node == origin) connected = true;
            }
            if (connected) continue;
            NodeId best = kNoNode;
            std::uint32_t best_dist = kInf;
            for (const TopologyStore::Attachment& att : attached) {
                if (dist[att.node] < best_dist) {
                    best = att.node;
                    best_dist = dist[att.node];
                }
            }
            if (best == kNoNode) continue;
            ip::Route route;
            route.prefix = store.subnet_prefix(ref);
            route.next_hop = first_hop[best]->peer_addr;
            route.ifindex = first_hop[best]->ifindex;
            route.metric = best_dist;
            route.origin = "static";
            expected.table.install(route);
            ++expected.installs;
        }
        out.push_back(std::move(expected));
    }
    return out;
}

void expect_same_routes(const ip::RoutingTable& got, const ip::RoutingTable& want,
                        const std::string& node) {
    const std::vector<ip::Route> a = got.routes();
    const std::vector<ip::Route> b = want.routes();
    ASSERT_EQ(a.size(), b.size()) << node;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].prefix, b[i].prefix) << node << " route " << i;
        EXPECT_EQ(a[i].next_hop, b[i].next_hop) << node << " " << b[i].prefix;
        EXPECT_EQ(a[i].ifindex, b[i].ifindex) << node << " " << b[i].prefix;
        EXPECT_EQ(a[i].metric, b[i].metric) << node << " " << b[i].prefix;
        EXPECT_EQ(a[i].origin, b[i].origin) << node << " " << b[i].prefix;
    }
}

/// Runs the pass and checks every origin's table against the reference,
/// and that each table's generation moved once, for a non-empty batch.
/// Returns how many routes the reference installed, summed.
std::size_t expect_pass_matches_reference(Internetwork& net) {
    const std::vector<Expected> want = reference_static_routes(net);
    std::vector<std::uint64_t> generations;
    for (const Expected& e : want) {
        generations.push_back(e.node->ip().routing_table().generation());
    }
    net.use_static_routes();
    std::size_t installs = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const ip::RoutingTable& table = want[i].node->ip().routing_table();
        expect_same_routes(table, want[i].table, want[i].node->name());
        EXPECT_EQ(table.generation(), generations[i] + (want[i].installs > 0 ? 1 : 0))
            << want[i].node->name() << ": one bump per batch";
        installs += want[i].installs;
    }
    return installs;
}

TwoTierParams two_tier(std::uint64_t seed, bool compact) {
    TwoTierParams p;
    p.gateways = 24;
    p.lans = 20;
    p.hosts_per_lan = compact ? 5 : 3;
    p.seed = seed;
    p.compact_hosts = compact;
    p.install_routes = false;
    return p;
}

TEST(StaticRouteOracle, CompactTwoTierMatchesOnOneAndTwoShards) {
    for (const std::uint64_t seed : {3u, 8u}) {
        Internetwork net(seed);
        generate_two_tier(net, two_tier(seed, true));
        EXPECT_GT(expect_pass_matches_reference(net), 0u) << "seed " << seed;

        sim::ParallelSimulator psim(2, 1);
        Internetwork sharded(seed, psim);
        generate_two_tier(sharded, two_tier(seed, true));
        EXPECT_GT(expect_pass_matches_reference(sharded), 0u) << "seed " << seed;
    }
}

TEST(StaticRouteOracle, MaterializedTwoTierMatches) {
    // Each LAN holds its home gateway and three hosts: four attachments,
    // so a gateway's nearest-attachment choice and a host's LAN-mates
    // both come into play. Hosts are origins too.
    for (const std::uint64_t seed : {1u, 5u, 12u}) {
        Internetwork net(seed);
        const TwoTierTopology topo = generate_two_tier(net, two_tier(seed, false));
        ASSERT_FALSE(topo.hosts.empty());
        EXPECT_GT(expect_pass_matches_reference(net), 0u) << "seed " << seed;
    }
}

TEST(StaticRouteOracle, SubnetsAllocatedOutOfTableOrderMatch) {
    // Leaf LANs take 11/8 and everything else 10/8, so a leaf LAN made
    // before a trunk is allocated ahead of a subnet that sorts before it.
    // Ties abound: g0 reaches g2's subnets through g1 and g3 at equal
    // distance, and the shared LAN has three attachments.
    Internetwork net(17);
    Gateway& g0 = net.add_gateway("g0");
    Gateway& g1 = net.add_gateway("g1");
    Gateway& g2 = net.add_gateway("g2");
    Gateway& g3 = net.add_gateway("g3");
    net.add_leaf_lan(g2, 4, "leafA");
    net.connect(g0, g1, link::presets::ethernet_hop());
    net.connect(g0, g3, link::presets::ethernet_hop());
    const std::size_t lan = net.add_lan(link::presets::ethernet_lan(), "shared");
    net.attach_to_lan(g1, lan);
    net.attach_to_lan(g2, lan);
    Host& h = net.add_host("h");
    net.attach_to_lan(h, lan);
    net.add_leaf_lan(g0, 2, "leafB");
    net.connect(g3, g2, link::presets::ethernet_hop());
    Host& far = net.add_host("far");
    net.connect(far, g3, link::presets::ethernet_hop());
    const TopologyStore& store = net.topology();
    ASSERT_TRUE(ip::RoutingTable::precedes(store.subnet_prefix(store.subnets()[1]),
                                           store.subnet_prefix(store.subnets()[0])))
        << "the first trunk sorts before the leaf LAN allocated ahead of it";

    EXPECT_GT(expect_pass_matches_reference(net), 0u);
    // A second pass, as a recomputation after a failure would run it,
    // replaces every route in place with its equal.
    EXPECT_GT(expect_pass_matches_reference(net), 0u);
}

}  // namespace
}  // namespace catenet::core
