// Route-lookup and scale-forwarding tests (DESIGN.md §13): a randomized
// differential property test pinning RoutingTable::lookup() to a brute-
// force longest-prefix match over routes() (install/remove/bulk_load/
// remove_by_origin interleavings × random and boundary addresses), and
// the table itself to a twin that takes every batch as install() calls
// (random, ascending, duplicated and overlapping batches), nested
// prefixes and generation-bump visibility, set-associative route cache
// eviction on the IpStack, the block-keyed route cache against lookup()
// (a differential over sent and forwarded datagrams, and block-mates of
// one stub LAN), StubLan injection with the gateway interface down, and
// train-vs-single leaf injection parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/internetwork.h"
#include "core/topology_gen.h"
#include "ip/ip_stack.h"
#include "ip/ipv4_header.h"
#include "ip/routing_table.h"
#include "link/netif.h"
#include "link/presets.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace catenet::ip {
namespace {

using util::Ipv4Address;
using util::Ipv4Prefix;

Route make_route(std::uint32_t addr, int len, std::size_t ifindex = 0,
                 RouteOrigin origin = RouteOrigin::Tag::Static) {
    Route r;
    r.prefix = Ipv4Prefix(Ipv4Address(addr), len);
    r.next_hop = Ipv4Address(0x0A000001u);
    r.ifindex = ifindex;
    r.origin = origin;
    return r;
}

std::uint32_t mask_of(int len) {
    return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
}

// --- differential property: lookup() == brute-force LPM -----------------

/// The test oracle: one linear pass over the table's snapshot, keeping the
/// longest prefix that covers `dst`. Within a length prefixes are unique,
/// so the longest covering route is the only correct answer.
const Route* brute_force_lpm(const std::vector<Route>& routes, Ipv4Address dst) {
    const Route* best = nullptr;
    for (const Route& r : routes) {
        if (!r.prefix.contains(dst)) continue;
        if (best == nullptr || r.prefix.length() > best->prefix.length()) best = &r;
    }
    return best;
}

/// Every address the lookup could plausibly get wrong for the current
/// table: each installed prefix's first and last covered address plus the
/// addresses just outside the span (per-length masking off-by-ones live
/// exactly there), plus a deterministic spray of random addresses.
void expect_lookup_matches_brute_force(const RoutingTable& table, util::Rng& rng) {
    const std::vector<Route> routes = table.routes();
    std::vector<std::uint32_t> probes;
    for (const Route& r : routes) {
        const std::uint32_t base = r.prefix.address().value() & mask_of(r.prefix.length());
        const std::uint32_t span = ~mask_of(r.prefix.length());
        probes.push_back(base);
        probes.push_back(base + span);
        probes.push_back(base - 1);     // wraps for 0.0.0.0 — still a probe
        probes.push_back(base + span + 1);
        probes.push_back(base + span / 2);
    }
    for (int i = 0; i < 64; ++i) {
        probes.push_back(static_cast<std::uint32_t>(
            rng.uniform(0, std::numeric_limits<std::uint32_t>::max())));
    }
    for (const std::uint32_t p : probes) {
        const Ipv4Address dst(p);
        const RouteRef got = table.lookup(dst);
        const Route* want = brute_force_lpm(routes, dst);
        ASSERT_EQ(got.has_value(), want != nullptr)
            << "lookup/brute-force disagree on a match at " << dst << " (table size "
            << table.size() << ")";
        if (want == nullptr) continue;
        ASSERT_EQ(got->prefix, want->prefix) << "at " << dst;
        ASSERT_EQ(got->ifindex, want->ifindex) << "at " << dst;
    }
}

class RouteLookupDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteLookupDifferential, RandomMutationInterleavingsAgreeWithBruteForce) {
    util::Rng rng(GetParam());
    RoutingTable table;
    // The same mutations with every batch applied as install() calls, in
    // batch order: bulk_load must leave exactly this table.
    RoutingTable sequential;

    // Lengths from the default route to host routes, dense around the
    // byte boundaries where masking mistakes show.
    const int lengths[] = {0, 5, 8, 11, 12, 13, 16, 20, 23, 24, 25, 28, 30, 31, 32};
    // A handful of base blocks so prefixes overlap and nest rather than
    // scattering uniformly over 2^32.
    const std::uint32_t blocks[] = {0x0A000000u, 0x0A0B0000u, 0x0B000000u,
                                    0xC0A80000u, 0x00000000u, 0xFFFF0000u};
    const RouteOrigin origins[] = {RouteOrigin::Tag::Static, RouteOrigin::Tag::Dv,
                                   RouteOrigin::Tag::Egp};

    auto random_route = [&](std::size_t i) {
        const int len = lengths[rng.uniform(0, std::size(lengths) - 1)];
        const std::uint32_t base = blocks[rng.uniform(0, std::size(blocks) - 1)];
        const auto jitter = static_cast<std::uint32_t>(
            rng.uniform(0, std::numeric_limits<std::uint32_t>::max()));
        return make_route((base ^ jitter) & mask_of(len), len, i % 3,
                          origins[rng.uniform(0, 2)]);
    };

    // A batch in one of four shapes: random order; strictly ascending in
    // table order, as the static-route pass builds them, which bulk_load
    // takes without sorting; ascending with one prefix repeated under a
    // different next hop, where the later copy must win; and ascending
    // with a share of the routes the table already holds, re-pointed, so
    // they replace in place beside fresh ones.
    const auto make_batch = [&](int step) {
        std::vector<Route> batch;
        const auto n = rng.uniform(1, 40);
        for (std::uint64_t i = 0; i < n; ++i) {
            batch.push_back(random_route(step + static_cast<int>(i)));
        }
        const std::uint64_t shape = rng.uniform(0, 3);
        if (shape == 0) return batch;
        if (shape == 3) {
            for (const Route& held : table.routes()) {
                if (!rng.chance(0.5)) continue;
                Route again = held;
                again.next_hop = Ipv4Address(static_cast<std::uint32_t>(step + 1));
                batch.push_back(again);
            }
        }
        const auto less = [](const Route& a, const Route& b) {
            return RoutingTable::precedes(a.prefix, b.prefix);
        };
        std::stable_sort(batch.begin(), batch.end(), less);
        const auto same_prefix = [](const Route& a, const Route& b) { return a.prefix == b.prefix; };
        batch.erase(std::unique(batch.begin(), batch.end(), same_prefix), batch.end());
        if (shape == 2) {
            const auto at = static_cast<std::ptrdiff_t>(rng.uniform(0, batch.size() - 1));
            Route twin = batch[static_cast<std::size_t>(at)];
            twin.next_hop = Ipv4Address(0x0A0000FEu);
            twin.ifindex += 1;
            batch.insert(batch.begin() + at + 1, twin);
        }
        return batch;
    };

    for (int step = 0; step < 200; ++step) {
        const std::uint64_t op = rng.uniform(0, 9);
        if (op < 5) {
            const Route route = random_route(step);
            table.install(route);
            sequential.install(route);
        } else if (op < 7 && table.size() > 0) {
            // Remove an existing prefix (hit the table, not thin air).
            const auto snapshot = table.routes();
            const auto victim = rng.uniform(0, snapshot.size() - 1);
            table.remove(snapshot[victim].prefix);
            sequential.remove(snapshot[victim].prefix);
        } else if (op < 9) {
            const std::vector<Route> batch = make_batch(step);
            table.bulk_load(batch);
            for (const Route& route : batch) sequential.install(route);
        } else {
            const RouteOrigin origin = origins[rng.uniform(0, 2)];
            table.remove_by_origin(origin.view());
            sequential.remove_by_origin(origin.view());
        }
        ASSERT_EQ(table.routes(), sequential.routes()) << "step " << step;
        if (step % 10 == 0 || step > 190) {
            expect_lookup_matches_brute_force(table, rng);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteLookupDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(RoutingTable, NestedPrefixesResolveLongestFirstAsEachIsRemoved) {
    // One address covered by a route at every length 32..0: lookup must
    // return the /32; after each remove, the next-longest must answer —
    // 33 removals, each seen by the very next lookup.
    const std::uint32_t addr = 0x0A0B0C0Du;
    RoutingTable table;
    for (int len = 0; len <= 32; ++len) {
        table.install(make_route(addr & mask_of(len), len));
    }
    for (int len = 32; len >= 0; --len) {
        const RouteRef ref = table.lookup(Ipv4Address(addr));
        ASSERT_TRUE(ref.has_value());
        EXPECT_EQ(ref->prefix.length(), len);
        EXPECT_TRUE(table.remove(Ipv4Prefix(Ipv4Address(addr & mask_of(len)), len)));
    }
    EXPECT_FALSE(table.lookup(Ipv4Address(addr)).has_value());
}

TEST(RoutingTable, GenerationBumpInvalidatesBetweenLookups) {
    RoutingTable table;
    table.install(make_route(0x0A000000u, 8));
    const Ipv4Address dst(0x0A010203u);
    ASSERT_EQ(table.lookup(dst)->prefix.length(), 8);
    const std::uint64_t generation = table.generation();

    // A more specific route lands after a lookup: the generation moves (so
    // every soft-state cache over the table goes stale) and the next
    // lookup sees the new route, never the earlier answer.
    table.install(make_route(0x0A010000u, 16));
    EXPECT_GT(table.generation(), generation);
    EXPECT_EQ(table.lookup(dst)->prefix.length(), 16);

    table.remove(Ipv4Prefix(Ipv4Address(0x0A010000u), 16));
    EXPECT_EQ(table.lookup(dst)->prefix.length(), 8);
}

// --- set-associative route cache ----------------------------------------

TEST(RouteCache, SetAssociativeHoldsWaysAndEvictsRoundRobin) {
    core::Internetwork net(5);
    core::Host& h = net.add_host("h");
    core::Gateway& g = net.add_gateway("g");
    net.connect(h, g, link::presets::ethernet_hop());
    net.install_host_default_routes();
    IpStack& stack = h.ip();

    // Destinations that all land in one cache set (and would have fought
    // over ONE slot in the old direct-mapped design). Each comes from its
    // own /24: a line covers a whole block under the table's longest
    // prefix, so two hosts of one /24 would share a line, not collide.
    constexpr std::size_t kWays = IpStack::kRouteCacheWays;
    const std::uint32_t block_mask = stack.routing_table().block_mask();
    ASSERT_GE(block_mask, 0xffffff00u) << "the table's longest prefix is shorter than /24";
    const auto set_of = [&](std::uint32_t a) {
        return IpStack::route_cache_set(Ipv4Address(a & block_mask));
    };
    std::vector<Ipv4Address> dsts;
    const std::size_t set = set_of(0x14000001u);
    for (std::uint32_t a = 0x14000001u; dsts.size() < kWays + 1; a += 0x100u) {
        if (set_of(a) == set) {
            dsts.emplace_back(a);
        }
    }

    const std::uint8_t payload[4] = {1, 2, 3, 4};
    auto hits = [&] { return stack.counters().get(telemetry::Counter::IpRouteCacheHit); };
    auto misses = [&] { return stack.counters().get(telemetry::Counter::IpRouteCacheMiss); };

    const std::uint64_t h0 = hits();
    const std::uint64_t m0 = misses();
    // Cold: kWays distinct colliding destinations, one miss each.
    for (std::size_t i = 0; i < kWays; ++i) {
        ASSERT_TRUE(stack.send(253, dsts[i], payload));
    }
    EXPECT_EQ(misses() - m0, kWays);
    EXPECT_EQ(hits() - h0, 0u);
    // Warm: all kWays co-resident — the direct-mapped cache could hold
    // only one of them.
    for (std::size_t i = 0; i < kWays; ++i) {
        ASSERT_TRUE(stack.send(253, dsts[i], payload));
    }
    EXPECT_EQ(hits() - h0, kWays);
    EXPECT_EQ(misses() - m0, kWays);

    // A (kWays+1)-th collider misses and evicts the round-robin victim
    // (way 0); the evicted destination misses, the other residents hit.
    ASSERT_TRUE(stack.send(253, dsts[kWays], payload));
    EXPECT_EQ(misses() - m0, kWays + 1);
    ASSERT_TRUE(stack.send(253, dsts[0], payload));
    EXPECT_EQ(misses() - m0, kWays + 2) << "dsts[0] was the round-robin victim";
    for (std::size_t i = 2; i < kWays; ++i) {  // dsts[1] fell to dsts[0]'s refill
        ASSERT_TRUE(stack.send(253, dsts[i], payload));
    }
    EXPECT_EQ(misses() - m0, kWays + 2) << "surviving ways must still hit";
}

TEST(RouteCache, GenerationBumpInvalidatesEveryWay) {
    core::Internetwork net(6);
    core::Host& h = net.add_host("h");
    core::Gateway& g = net.add_gateway("g");
    net.connect(h, g, link::presets::ethernet_hop());
    net.install_host_default_routes();
    IpStack& stack = h.ip();

    const std::uint8_t payload[4] = {9, 9, 9, 9};
    const Ipv4Address dst(0x15000001u);
    ASSERT_TRUE(stack.send(253, dst, payload));  // miss, refill
    const std::uint64_t m_before =
        stack.counters().get(telemetry::Counter::IpRouteCacheMiss);
    ASSERT_TRUE(stack.send(253, dst, payload));  // hit
    EXPECT_EQ(stack.counters().get(telemetry::Counter::IpRouteCacheMiss), m_before);

    // Any table mutation strands every line at the old generation.
    stack.routing_table().install(make_route(0x63000000u, 8, 0));
    ASSERT_TRUE(stack.send(253, dst, payload));
    EXPECT_EQ(stack.counters().get(telemetry::Counter::IpRouteCacheMiss),
              m_before + 1);
}

// --- route cache by address block: every datagram leaves where lookup() says

/// A point-to-point interface that records where each datagram leaves (the
/// next hop the stack named) and can play a datagram into its stack's
/// receive path, as an arriving link would.
class RecordingNetIf : public link::NetIf {
public:
    explicit RecordingNetIf(std::string name) : name_(std::move(name)) {}
    std::size_t mtu() const noexcept override { return 1500; }
    const std::string& name() const noexcept override { return name_; }
    void send(link::Packet, Ipv4Address next_hop) override {
        ++sent;
        last_next_hop = next_hop;
    }
    void arrive(link::Packet packet) { ASSERT_TRUE(deliver(std::move(packet))); }

    std::uint64_t sent = 0;
    Ipv4Address last_next_hop;

private:
    std::string name_;
};

class RouteCacheDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteCacheDifferential, EveryDatagramLeavesWhereLookupSays) {
    util::Rng rng(GetParam());
    sim::Simulator sim;
    IpStack stack(sim, "s");
    stack.set_forwarding(true);
    constexpr std::size_t kIfaces = 4;
    std::vector<std::unique_ptr<RecordingNetIf>> ifaces;
    for (std::size_t i = 0; i < kIfaces; ++i) {
        ifaces.push_back(std::make_unique<RecordingNetIf>("if" + std::to_string(i)));
        const Ipv4Prefix subnet(Ipv4Address(0xC6336400u + (std::uint32_t(i) << 2)), 30);
        stack.add_interface(*ifaces.back(), Ipv4Address(subnet.address().value() + 1), subnet);
    }
    RoutingTable& table = stack.routing_table();

    const int lengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 22, 23, 24, 25, 26, 29, 30, 31, 32};
    const std::uint32_t blocks[] = {0x0A000000u, 0x0A0B0000u, 0xC0A80000u, 0xC6336400u,
                                    0x00000000u, 0xFFFFFF00u};
    const RouteOrigin origins[] = {RouteOrigin::Tag::Static, RouteOrigin::Tag::Dv,
                                   RouteOrigin::Tag::Egp};
    const auto random_address = [&] {
        return static_cast<std::uint32_t>(
            rng.uniform(0, std::numeric_limits<std::uint32_t>::max()));
    };
    // Next hops are a neighbor's address or unspecified (a connected-style
    // route: the datagram goes to its own destination).
    const auto random_route = [&] {
        const int len = lengths[rng.uniform(0, std::size(lengths) - 1)];
        const std::uint32_t base = blocks[rng.uniform(0, std::size(blocks) - 1)];
        Route r = make_route((base ^ (random_address() >> rng.uniform(0, 31))) & mask_of(len),
                             len, rng.uniform(0, kIfaces - 1), origins[rng.uniform(0, 2)]);
        r.next_hop = rng.chance(0.3) ? Ipv4Address() : Ipv4Address(random_address());
        return r;
    };

    const std::uint8_t payload[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    std::uint64_t lookups = 0;
    // One datagram to `dst`, sent by this node or forwarded from another
    // (arriving on if0 from a local source, so a no-route ICMP error loops
    // back instead of leaving): it leaves on the interface and toward the
    // next hop lookup() names, or is dropped as no-route when it names none.
    const auto probe = [&](std::uint32_t addr, bool forwarded) {
        const Ipv4Address dst(addr);
        // A broadcast or local destination is delivered, never routed.
        if (stack.is_local_address(dst) || dst == kBroadcastAddress) return;
        const RouteRef want = table.lookup(dst);
        std::vector<std::uint64_t> sent_before;
        for (const auto& i : ifaces) sent_before.push_back(i->sent);
        const std::uint64_t no_route = stack.stats().dropped_no_route;
        ++lookups;
        if (forwarded) {
            Ipv4Header h;
            h.protocol = 253;
            h.src = stack.interface_address(0);
            h.dst = dst;
            ifaces[0]->arrive(link::Packet{encode_datagram(h, payload)});
        } else {
            EXPECT_EQ(stack.send(253, dst, payload), want.has_value()) << dst;
        }
        for (std::size_t i = 0; i < kIfaces; ++i) {
            const bool leaves_here = want.has_value() && want->ifindex == i;
            ASSERT_EQ(ifaces[i]->sent - sent_before[i], leaves_here ? 1u : 0u)
                << dst << (forwarded ? " forwarded" : " sent") << " on if" << i;
        }
        if (want.has_value()) {
            const Ipv4Address hop = want->next_hop.is_unspecified() ? dst : want->next_hop;
            ASSERT_EQ(ifaces[want->ifindex]->last_next_hop, hop) << dst;
        } else {
            ASSERT_EQ(stack.stats().dropped_no_route, no_route + 1) << dst;
        }
    };

    for (int step = 0; step < 150; ++step) {
        const std::uint64_t op = rng.uniform(0, 9);
        if (op < 5) {
            table.install(random_route());
        } else if (op < 7 && table.size() > 0) {
            const auto snapshot = table.routes();
            table.remove(snapshot[rng.uniform(0, snapshot.size() - 1)].prefix);
        } else if (op < 9) {
            std::vector<Route> batch;
            const auto n = rng.uniform(1, 20);
            for (std::uint64_t i = 0; i < n; ++i) batch.push_back(random_route());
            table.bulk_load(batch);
        } else {
            table.remove_by_origin(origins[rng.uniform(0, 2)].view());
        }
        // Each route's edges and the addresses just outside them, random
        // addresses, and for each random one a block-mate: an address
        // equal to it under block_mask(), which the cache serves from the
        // same line. Every probe runs twice, so the second meets a warm
        // line.
        std::vector<std::uint32_t> addrs;
        for (const Route& r : table.routes()) {
            const std::uint32_t base = r.prefix.address().value();
            const std::uint32_t span = ~mask_of(r.prefix.length());
            addrs.insert(addrs.end(), {base, base + span, base - 1, base + span + 1});
        }
        const std::uint32_t block = table.block_mask();
        for (int i = 0; i < 16; ++i) {
            const std::uint32_t a = random_address();
            addrs.push_back(a);
            addrs.push_back((a & block) | (random_address() & ~block));
        }
        for (const std::uint32_t a : addrs) {
            const bool forwarded = rng.chance(0.5);
            probe(a, forwarded);
            probe(a, !forwarded);
        }
    }
    const auto& c = stack.counters();
    EXPECT_EQ(c.get(telemetry::Counter::IpRouteCacheHit) +
                  c.get(telemetry::Counter::IpRouteCacheMiss),
              lookups);
    EXPECT_GE(c.get(telemetry::Counter::IpRouteCacheHit), lookups / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCacheDifferential, ::testing::Values(1u, 2u, 3u, 17u, 99u));

// --- StubLan edges and train parity -------------------------------------

core::TwoTierParams tiny_params(std::uint64_t seed) {
    core::TwoTierParams p;
    p.gateways = 4;
    p.lans = 4;
    p.hosts_per_lan = 3;
    p.seed = seed;
    p.compact_hosts = true;
    return p;
}

TEST(StubLan, InjectWithGatewayInterfaceDownIsRefusedAndTallyFree) {
    core::Internetwork net(21);
    const auto topo = core::generate_two_tier(net, tiny_params(21));
    core::TopologyStore& store = net.topology();

    const core::NodeId src = store.leaf_host(topo.leaf_lans[0], 0);
    const core::NodeId dst = store.leaf_host(topo.leaf_lans[2], 1);
    const auto& lan = store.leaf_lans()[0];
    core::Node* gw = store.object(lan.gateway);
    ASSERT_NE(gw, nullptr);
    link::NetIf& stub = gw->ip().interface(lan.gateway_ifindex);

    stub.set_up(false);
    const std::uint8_t payload[4] = {1, 2, 3, 4};
    EXPECT_FALSE(store.leaf_inject(src, store.address(dst), 253, payload));
    EXPECT_EQ(store.leaf_inject_train(src, store.address(dst), 253, payload, 8), 0u);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(store.leaf_sent(src), 0u) << "a refused inject must not tally";
    EXPECT_EQ(store.leaf_delivered_total(), 0u);

    stub.set_up(true);
    EXPECT_EQ(store.leaf_inject_train(src, store.address(dst), 253, payload, 8), 8u);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(store.leaf_sent(src), 8u);
    EXPECT_EQ(store.leaf_delivered(dst), 8u);
}

TEST(StubLan, TrainInjectionMatchesSingleInjectionExactly) {
    // Two identical internets, one driven by leaf_inject_train, the other
    // by the same number of single injects: deliveries, tallies and the
    // LAN counter blocks must match — the train is an optimization, not a
    // behaviour.
    constexpr std::uint32_t kCount = 40;  // > kBurst: exercises the tail
    const std::uint8_t payload[8] = {7, 6, 5, 4, 3, 2, 1, 0};

    auto drive = [&](bool train) {
        core::Internetwork net(33);
        const auto topo = core::generate_two_tier(net, tiny_params(33));
        core::TopologyStore& store = net.topology();
        const core::NodeId src = store.leaf_host(topo.leaf_lans[1], 2);
        const core::NodeId dst = store.leaf_host(topo.leaf_lans[3], 0);
        if (train) {
            EXPECT_EQ(store.leaf_inject_train(src, store.address(dst), 253,
                                              payload, kCount),
                      kCount);
        } else {
            for (std::uint32_t i = 0; i < kCount; ++i) {
                EXPECT_TRUE(store.leaf_inject(src, store.address(dst), 253, payload));
            }
        }
        net.run_for(sim::seconds(2));
        return std::tuple{store.leaf_sent(src), store.leaf_delivered(dst),
                          store.leaf_delivered_total(),
                          store.leaf_counters(topo.leaf_lans[1])
                              .get(telemetry::Counter::IpTx),
                          store.leaf_counters(topo.leaf_lans[3])
                              .get(telemetry::Counter::IpDeliver)};
    };

    const auto single = drive(false);
    const auto train = drive(true);
    EXPECT_EQ(single, train);
    EXPECT_EQ(std::get<0>(train), kCount);
    EXPECT_EQ(std::get<1>(train), kCount);
}

// Two leaf hosts of one stub LAN are block-mates at every gateway: all
// routes are /24s, so the lines the first host's datagram fills serve the
// second's. A /32 for the second host then splits the block: it takes the
// /32, and its block-mate keeps the /24 path.
TEST(RouteCache, BlockMatesShareALineUntilAHostRouteSplitsThem) {
    core::Internetwork net(41);
    const auto topo = core::generate_two_tier(net, tiny_params(41));
    core::TopologyStore& store = net.topology();
    const auto lans = store.leaf_lans();

    // A destination LAN homed away from the source LAN's gateway g.
    const std::uint32_t s = 0;
    std::uint32_t d = 1;
    while (d < lans.size() && lans[d].gateway == lans[s].gateway) ++d;
    ASSERT_LT(d, lans.size());
    const core::NodeId src = store.leaf_host(topo.leaf_lans[s], 0);
    const core::NodeId d0 = store.leaf_host(topo.leaf_lans[d], 0);
    const core::NodeId d1 = store.leaf_host(topo.leaf_lans[d], 1);
    IpStack& g = store.object(lans[s].gateway)->ip();
    ASSERT_EQ(g.routing_table().block_mask(), 0xffffff00u) << "every route is a /24";

    const auto total = [&](telemetry::Counter c) {
        std::uint64_t n = 0;
        for (const core::Gateway* gw : topo.gateways) n += gw->ip().counters().get(c);
        return n;
    };
    const std::uint8_t payload[8] = {8, 7, 6, 5, 4, 3, 2, 1};
    const auto send_to = [&](core::NodeId dst) {
        ASSERT_TRUE(store.leaf_inject(src, store.address(dst), 253, payload));
        net.run_for(sim::seconds(1));
    };

    send_to(d0);  // cold: one miss at each gateway on the path
    const std::uint64_t misses = total(telemetry::Counter::IpRouteCacheMiss);
    const std::uint64_t hits = total(telemetry::Counter::IpRouteCacheHit);
    send_to(d1);
    EXPECT_EQ(total(telemetry::Counter::IpRouteCacheMiss), misses)
        << "a block-mate of a cached destination missed";
    EXPECT_EQ(total(telemetry::Counter::IpRouteCacheHit) - hits, misses)
        << "d1's datagram crossed the gateways d0's did";
    EXPECT_EQ(store.leaf_delivered(d0), 1u);
    EXPECT_EQ(store.leaf_delivered(d1), 1u);

    // Steer d1 out another of g's trunks, one whose far gateway routes d's
    // LAN on without coming back through g. Trunk subnets hold .1 and .2.
    const Ipv4Address d1_addr = store.address(d1);
    const std::size_t via24 = g.routing_table().lookup(d1_addr)->ifindex;
    std::uint32_t via32 = g.interface_count();
    Ipv4Address peer;
    for (std::uint32_t i = 0; i < g.interface_count() && via32 == g.interface_count(); ++i) {
        const std::uint32_t own = g.interface_address(i).value();
        peer = Ipv4Address((own & 0xffu) == 1 ? own + 1 : own - 1);
        for (const core::Gateway* gw : topo.gateways) {
            if (i == via24 || !gw->ip().is_local_address(peer)) continue;
            const RouteRef onward = gw->ip().routing_table().lookup(d1_addr);
            if (onward && !g.is_local_address(onward->next_hop)) via32 = i;
        }
    }
    ASSERT_LT(via32, g.interface_count()) << "no second way out of g toward d";
    g.routing_table().install({Ipv4Prefix(d1_addr, 32), peer, via32, 0, "static"});

    const std::uint64_t out24 = g.interface(via24).stats().packets_sent;
    const std::uint64_t out32 = g.interface(via32).stats().packets_sent;
    send_to(d1);
    EXPECT_EQ(g.interface(via32).stats().packets_sent, out32 + 1) << "d1 took its /32";
    send_to(d0);
    EXPECT_EQ(g.interface(via24).stats().packets_sent, out24 + 1) << "d0 kept the /24";
    EXPECT_EQ(g.interface(via32).stats().packets_sent, out32 + 1);
    EXPECT_EQ(store.leaf_delivered(d0), 2u);
    EXPECT_EQ(store.leaf_delivered(d1), 2u);
}

}  // namespace
}  // namespace catenet::ip
