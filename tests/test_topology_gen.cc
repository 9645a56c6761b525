// Two-tier generator tests: the generator's determinism contract (same
// seed, byte-identical topology), the partitioner's shard assignment on
// generated meshes (LANs pinned to their home gateway), compact leaf-host
// forwarding end to end, and the determinism suite's sequential-vs-sharded
// signature equality on a generated ~1k-node internet at 2 and 4 shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/bulk.h"
#include "app/voice.h"
#include "core/internetwork.h"
#include "core/topology_gen.h"
#include "sim/parallel.h"

namespace catenet::core {
namespace {

TwoTierParams small_params(std::uint64_t seed) {
    TwoTierParams p;
    p.gateways = 8;
    p.lans = 16;
    p.hosts_per_lan = 5;
    p.seed = seed;
    return p;
}

TEST(TwoTierPlan, SameSeedSamePlan) {
    const auto a = plan_two_tier(small_params(42));
    const auto b = plan_two_tier(small_params(42));
    EXPECT_EQ(a.trunks, b.trunks);
    EXPECT_EQ(a.lan_home, b.lan_home);
    EXPECT_EQ(a.gateway_shard, b.gateway_shard);
    EXPECT_GE(a.trunks.size(), 8u) << "ring plus chords";
}

TEST(TwoTierPlan, DifferentSeedsDiverge) {
    const auto a = plan_two_tier(small_params(1));
    const auto b = plan_two_tier(small_params(2));
    EXPECT_TRUE(a.trunks != b.trunks || a.lan_home != b.lan_home);
}

TEST(TwoTierPlan, RingGuaranteesConnectivity) {
    // Even with zero successful chord draws the ring is there: every
    // gateway appears in at least two trunks (degree >= 2 for k > 2).
    const auto plan = plan_two_tier(small_params(7));
    std::vector<int> degree(plan.gateways, 0);
    for (const auto& [a, b] : plan.trunks) {
        ++degree[a];
        ++degree[b];
    }
    EXPECT_TRUE(std::ranges::all_of(degree, [](int d) { return d >= 2; }));
}

TEST(TwoTierPlan, RejectsCountsBeyondTheSubnetPlans) {
    // 10/8 numbers the trunks (and materialized LANs) and 11/8 the compact
    // leaf LANs, 65,536 /24s each; a count past that is refused, naming
    // the field, before any plan storage is sized from it, and a drawn
    // plan that needs more of 10/8 than it holds is refused, naming the
    // count, before the build can run out of subnets part way.
    auto rejects = [](TwoTierParams p, const std::string& field) {
        try {
            plan_two_tier(p);
            ADD_FAILURE() << "accepted " << field;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    };
    TwoTierParams p = small_params(1);
    p.lans = 0xffffffffu;  // what "-1" used to wrap to
    rejects(p, "lans");
    p = small_params(1);
    p.gateways = 65537;
    rejects(p, "gateways");
    p = small_params(1);
    p.lans = 65536;
    EXPECT_EQ(plan_two_tier(p).lan_home.size(), 65536u) << "the full plan is allowed";
    p = small_params(1);
    p.gateways = 50000;  // a ring of 50,000 plus up to 25,000 chords
    rejects(p, "trunks");
    p = small_params(1);
    p.lans = 65536;
    p.compact_hosts = false;  // materialized LANs share 10/8 with the trunks
    rejects(p, "materialized lans");
    p = small_params(1);
    p.extra_chords = 70000;
    rejects(p, "extra_chords");
}

TEST(TwoTierBuild, SameSeedByteIdenticalTopology) {
    Internetwork net1(99), net2(99);
    const auto t1 = generate_two_tier(net1, small_params(42));
    const auto t2 = generate_two_tier(net2, small_params(42));
    EXPECT_EQ(net1.topology().signature(), net2.topology().signature());
    // Spot-check beyond the hash: identical node counts and addresses.
    ASSERT_EQ(net1.topology().node_count(), net2.topology().node_count());
    for (NodeId id = 0; id < net1.topology().node_count(); ++id) {
        ASSERT_EQ(net1.topology().address(id), net2.topology().address(id));
        ASSERT_EQ(net1.topology().kind(id), net2.topology().kind(id));
    }
    EXPECT_EQ(t1.leaf_lans, t2.leaf_lans);
}

TEST(TwoTierBuild, DifferentSeedsDifferentSignature) {
    Internetwork net1(99), net2(99);
    generate_two_tier(net1, small_params(1));
    generate_two_tier(net2, small_params(2));
    EXPECT_NE(net1.topology().signature(), net2.topology().signature());
}

TEST(TwoTierBuild, CompactPopulationCounts) {
    Internetwork net(5);
    const auto params = small_params(5);
    const auto topo = generate_two_tier(net, params);
    const TopologyStore& store = net.topology();
    EXPECT_EQ(store.node_count(),
              params.gateways + std::size_t{params.lans} * params.hosts_per_lan);
    EXPECT_EQ(topo.leaf_lans.size(), params.lans);
    EXPECT_TRUE(topo.hosts.empty()) << "compact mode materializes no Host objects";
    std::size_t leaves = 0;
    for (NodeId id = 0; id < store.node_count(); ++id) {
        if (store.is_leaf(id)) {
            ++leaves;
            EXPECT_EQ(store.object(id), nullptr);
        }
    }
    EXPECT_EQ(leaves, std::size_t{params.lans} * params.hosts_per_lan);
}

TEST(TwoTierShards, PartitionIsDeterministicAndPinsLansToHomes) {
    const auto a = plan_two_tier(small_params(11), /*shards=*/2);
    const auto b = plan_two_tier(small_params(11), /*shards=*/2);
    EXPECT_EQ(a.gateway_shard, b.gateway_shard);
    ASSERT_EQ(a.gateway_shard.size(), 8u);
    EXPECT_TRUE(std::ranges::all_of(a.gateway_shard, [](auto s) { return s < 2; }));
    // The equal-lookahead mesh splits evenly: 4 + 4 gateways.
    EXPECT_EQ(std::ranges::count(a.gateway_shard, 0u), 4);
    EXPECT_EQ(std::ranges::count(a.gateway_shard, 1u), 4);

    // Build it sharded: every node — gateway, leaf host — must live in its
    // home gateway's shard (the stub edge is the one the partitioner must
    // never cut).
    sim::ParallelSimulator psim(2, 1);
    Internetwork net(11, psim);
    generate_two_tier(net, small_params(11));
    const TopologyStore& store = net.topology();
    for (const auto& lan : store.leaf_lans()) {
        for (std::uint32_t i = 0; i < lan.count; ++i) {
            EXPECT_EQ(store.shard(lan.first + i), store.shard(lan.gateway));
        }
    }
}

TEST(TwoTierShards, SoakPlanSplitsEvenly) {
    // bench_scale's and perfbench's soak internet, planned only. Its
    // 1,535 trunks all have one lookahead, so no cut can lose lookahead,
    // and the size cap splits the gateways evenly.
    TwoTierParams p;
    p.gateways = 1024;
    p.lans = 512;
    p.hosts_per_lan = 200;
    p.seed = 7;
    p.trunk.bits_per_second = 1'000'000'000;
    p.trunk.propagation_delay = sim::microseconds(50);
    for (const std::uint32_t shards : {2u, 4u}) {
        const auto plan = plan_two_tier(p, shards);
        for (std::uint32_t s = 0; s < shards; ++s) {
            EXPECT_EQ(std::ranges::count(plan.gateway_shard, s), 1024 / shards)
                << "shard " << s << " of " << shards;
        }
        std::size_t cut = 0;
        for (const auto& [a, b] : plan.trunks) {
            cut += plan.gateway_shard[a] != plan.gateway_shard[b] ? 1 : 0;
        }
        EXPECT_GT(cut, 0u);
        EXPECT_LT(cut, plan.trunks.size());
    }
}

TEST(TwoTierTraffic, CompactLeafDatagramCrossesTheMesh) {
    Internetwork net(3);
    TwoTierParams params = small_params(3);
    params.gateways = 4;
    params.lans = 4;
    params.hosts_per_lan = 3;
    const auto topo = generate_two_tier(net, params);
    TopologyStore& store = net.topology();

    const NodeId src = store.leaf_host(topo.leaf_lans[0], 0);
    const NodeId dst = store.leaf_host(topo.leaf_lans[2], 1);
    const std::uint8_t payload[4] = {1, 2, 3, 4};
    ASSERT_TRUE(store.leaf_inject(src, store.address(dst), 253, payload));
    net.run_for(sim::seconds(1));

    EXPECT_EQ(store.leaf_sent(src), 1u);
    EXPECT_EQ(store.leaf_delivered(dst), 1u);
    EXPECT_EQ(store.leaf_delivered_total(), 1u);
    EXPECT_GE(store.leaf_counters(topo.leaf_lans[0])
                  .get(telemetry::Counter::IpTx),
              1u);
    EXPECT_GE(store.leaf_counters(topo.leaf_lans[2])
                  .get(telemetry::Counter::IpDeliver),
              1u);
}

// --- sequential vs sharded determinism on a generated internet ---------------

struct RunSignature {
    std::uint64_t events;
    std::uint64_t link_bytes;
    std::uint64_t bytes_received;
    std::uint64_t retransmits;
    std::uint64_t voice_received;
    telemetry::CounterBlock counters;

    bool operator==(const RunSignature&) const = default;
};

/// A generated ~1k-node materialized internet: 8 gateways, 16 LANs x 61
/// hosts = 984 hosts.
TwoTierParams generated_params(std::uint64_t seed) {
    TwoTierParams params;
    params.gateways = 8;
    params.lans = 16;
    params.hosts_per_lan = 61;
    params.seed = seed;
    params.compact_hosts = false;  // real hosts: full transports end to end
    return params;
}

/// generated_params' internet, driven by a bulk transfer and a voice
/// stream between hosts on different LANs. The sharded twin partitions
/// the gateway mesh across `shards` engines (`threads` as
/// ParallelSimulator takes it); signature equality is the same contract
/// the hand-wired determinism scenarios enforce.
RunSignature run_generated(std::uint64_t seed, bool parallel, std::size_t threads = 1,
                           std::size_t shards = 2) {
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<Internetwork> owned;
    if (parallel) {
        psim = std::make_unique<sim::ParallelSimulator>(shards, threads);
        owned = std::make_unique<Internetwork>(seed, *psim);
    } else {
        owned = std::make_unique<Internetwork>(seed);
    }
    Internetwork& net = *owned;
    const auto topo = generate_two_tier(net, generated_params(seed));

    Host& sender_host = *topo.hosts[0];            // LAN 0
    Host& receiver_host = *topo.hosts.back();      // LAN 15
    Host& voice_a = *topo.hosts[61];               // LAN 1
    Host& voice_b = *topo.hosts[14 * 61 + 3];      // LAN 14

    app::BulkServer server(receiver_host, 21);
    app::BulkSender sender(sender_host, receiver_host.address(), 21, 64 * 1024);
    sender.start();
    app::VoiceOverUdp voice(voice_a, voice_b, 5004);
    voice.start(sim::seconds(5));
    net.run_for(sim::seconds(30));

    RunSignature sig;
    sig.events = parallel ? psim->events_processed() : net.sim().events_processed();
    sig.link_bytes = net.total_link_bytes();
    sig.bytes_received = server.total_bytes_received();
    sig.retransmits = sender.socket_stats().retransmitted_segments;
    sig.voice_received = voice.report().frames_received;
    sig.counters = net.metrics().totals();
    return sig;
}

TEST(TwoTierDeterminism, ShardedGeneratedInternetEqualsSequentialTwin) {
    const auto sequential = run_generated(1234, false);
    const auto sharded = run_generated(1234, true);
    EXPECT_EQ(sequential, sharded);
    EXPECT_GT(sequential.bytes_received, 0u) << "the transfer must actually run";
    EXPECT_GT(sequential.voice_received, 0u);
    EXPECT_EQ(sequential.counters.slots, sharded.counters.slots);
}

TEST(TwoTierDeterminism, ThreadedShardedGeneratedInternetEqualsSequentialTwin) {
    // The same twin with one thread per shard, so the barrier between
    // windows runs on a generated mesh.
    const auto sequential = run_generated(1234, false);
    const auto threaded = run_generated(1234, true, 0);
    EXPECT_EQ(sequential, threaded);
    EXPECT_GT(threaded.bytes_received, 0u) << "the transfer must actually run";
}

TEST(TwoTierDeterminism, FourShardThreadedGeneratedInternetEqualsSequentialTwin) {
    // Two gateways (and their LANs) per shard, one thread per shard: the
    // barrier and the heap merge run with four workers on a generated mesh.
    const auto plan = plan_two_tier(generated_params(1234), 4);
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(std::ranges::count(plan.gateway_shard, s), 2) << "shard " << s;
    }
    const auto sequential = run_generated(1234, false);
    const auto threaded = run_generated(1234, true, 0, 4);
    EXPECT_EQ(sequential, threaded);
    EXPECT_GT(threaded.bytes_received, 0u) << "the transfer must actually run";
}

TEST(TwoTierDeterminism, GeneratedInternetReplaysExactly) {
    const auto first = run_generated(99, true);
    const auto second = run_generated(99, true);
    EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace catenet::core
