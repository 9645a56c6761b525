// The sharded conservative engine, bottom to top: the latency-aware
// partitioner, equivalence of a 1-shard ParallelSimulator with the plain
// Simulator, cross-shard runs against their sequential twins
// (packet-exact), thread-count independence, lookahead correctness when
// the boundary latency is the global minimum, the window rule's clock and
// window count, 3,000 frames crossing in one window, equal-time arrivals
// from 80 channels merging in channel order, allocation-freedom of
// steady-state cross-shard forwarding, and the shard-safe stats and
// logging utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "app/bulk.h"
#include "app/voice.h"
#include "core/internetwork.h"
#include "link/presets.h"
#include "sim/parallel.h"
#include "telemetry/flight_recorder.h"
#include "util/logging.h"
#include "util/stats.h"

// Global allocation counter (same per-binary harness as test_sim.cc):
// counts every operator-new in this binary; tests measure deltas around
// loops that must never touch the allocator. Atomic because the parallel
// driver may run shard threads.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
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

// --- the partitioner ----------------------------------------------------

TEST(PartitionTopology, CutsTheHighestLatencyEdges) {
    // 0-1 and 2-3 are tight (1us); 1-2 is a 50ms satellite hop. Two shards
    // must cut the satellite link.
    std::vector<core::PartitionEdge> edges = {
        {0, 1, 1'000, true},
        {1, 2, 50'000'000, true},
        {2, 3, 1'000, true},
    };
    const auto shard = core::partition_topology({4, edges}, 2);
    EXPECT_EQ(shard[0], shard[1]);
    EXPECT_EQ(shard[2], shard[3]);
    EXPECT_NE(shard[0], shard[2]);
}

TEST(PartitionTopology, NonCuttableEdgesPinComponents) {
    // The 1-2 edge is the highest-latency but marked non-cuttable (a LAN);
    // the partitioner must cut elsewhere — at the 2us edge, the best
    // lookahead left. A size cap alone (two nodes a shard) would cut the
    // 1us edge instead: balance never buys a worse lookahead.
    std::vector<core::PartitionEdge> edges = {
        {0, 1, 1'000, true},
        {1, 2, 50'000'000, false},
        {2, 3, 2'000, true},
    };
    const auto shard = core::partition_topology({4, edges}, 2);
    EXPECT_EQ(shard[0], shard[1]);
    EXPECT_EQ(shard[1], shard[2]);
    EXPECT_NE(shard[2], shard[3]);
}

// Nodes per shard for a partition into `shards` parts.
std::vector<int> shard_loads(const std::vector<std::uint32_t>& shard, std::size_t shards) {
    std::vector<int> load(shards, 0);
    for (const auto s : shard) {
        EXPECT_LT(s, shards);
        if (s < shards) ++load[s];
    }
    return load;
}

TEST(PartitionTopology, DeterministicAndBalanced) {
    // 8 isolated pairs over 4 shards: every shard gets exactly 2 pairs.
    std::vector<core::PartitionEdge> edges;
    for (std::size_t i = 0; i < 8; ++i) {
        edges.push_back({2 * i, 2 * i + 1, 1'000, false});
    }
    const auto a = core::partition_topology({16, edges}, 4);
    const auto b = core::partition_topology({16, edges}, 4);
    EXPECT_EQ(a, b);
    EXPECT_EQ(shard_loads(a, 4), std::vector<int>(4, 4));

    // A 16-node ring of equal-lookahead links. Merging in index order
    // alone would leave one component of 15 (13 at 4 shards); the size
    // cap splits the ring into equal arcs.
    std::vector<core::PartitionEdge> ring;
    for (std::size_t i = 0; i < 16; ++i) ring.push_back({i, (i + 1) % 16, 1'000, true});
    EXPECT_EQ(shard_loads(core::partition_topology({16, ring}, 2), 2),
              std::vector<int>(2, 8));
    const auto quarters = core::partition_topology({16, ring}, 4);
    EXPECT_EQ(quarters, core::partition_topology({16, ring}, 4));
    EXPECT_EQ(shard_loads(quarters, 4), std::vector<int>(4, 4));
}

// --- scenario twins ------------------------------------------------------

struct RunSignature {
    std::uint64_t events;
    std::uint64_t link_bytes;
    std::uint64_t bytes_received;
    std::uint64_t retransmits;
    std::uint64_t voice_received;
    std::string trace;

    bool operator==(const RunSignature&) const = default;
};

// A two-cluster internetwork: (a — g1) | (g2 — b), with a lossy+jittery
// intra-cluster hop on the far side, so the far shard draws while the
// near one forwards. The cut g1-g2 trunk is lossless here; a cut link
// draws from per-direction streams forked exactly as an uncut one's, and
// Determinism.ShardedLossyCutTrunkEqualsSequentialTwin holds a lossy one
// to its twin. `shards` 1 or 2; `threads` forwarded to the driver;
// `parallel` false builds the identical sequential twin.
RunSignature run_cross_scenario(std::uint64_t seed, bool parallel,
                                std::size_t shards, std::size_t threads) {
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> owned;
    if (parallel) {
        psim = std::make_unique<sim::ParallelSimulator>(shards, threads);
        owned = std::make_unique<core::Internetwork>(seed, *psim);
    } else {
        owned = std::make_unique<core::Internetwork>(seed);
    }
    core::Internetwork& net = *owned;
    const std::uint32_t far = parallel && shards > 1 ? 1u : 0u;

    core::Host& a = net.add_host("a");
    core::Gateway& g1 = net.add_gateway("g1");
    core::Gateway& g2 = net.add_gateway("g2", far);
    core::Host& b = net.add_host("b", far);

    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.03;
    lossy.jitter = sim::milliseconds(2);
    link::LinkParams wide = link::presets::ethernet_hop();
    wide.propagation_delay = sim::milliseconds(10);  // the shard boundary

    net.connect(a, g1, link::presets::ethernet_hop());
    net.connect(g1, g2, wide);
    net.connect(g2, b, lossy);
    net.use_static_routes();

    // Every node's lane is written from its own shard's thread.
    telemetry::FlightRecorder& rec = net.attach_flight_recorder();

    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 256 * 1024);
    sender.start();
    app::VoiceOverUdp voice(a, b, 5004);
    voice.start(sim::seconds(10));
    net.run_for(sim::seconds(60));

    RunSignature sig;
    sig.events = parallel ? psim->events_processed() : net.sim().events_processed();
    sig.link_bytes = net.total_link_bytes();
    sig.bytes_received = server.total_bytes_received();
    sig.retransmits = sender.socket_stats().retransmitted_segments;
    sig.voice_received = voice.report().frames_received;
    EXPECT_EQ(rec.total_overwritten(), 0u);
    sig.trace = rec.merged();
    return sig;
}

TEST(ParallelEquivalence, OneShardMatchesPlainSimulatorExactly) {
    const auto sequential = run_cross_scenario(1234, false, 1, 1);
    const auto one_shard = run_cross_scenario(1234, true, 1, 1);
    EXPECT_EQ(sequential, one_shard);
    EXPECT_GT(sequential.retransmits, 0u) << "scenario must exercise randomness";
    EXPECT_FALSE(sequential.trace.empty());
}

TEST(ParallelEquivalence, TwoShardsMatchSequentialPacketForPacket) {
    const auto sequential = run_cross_scenario(1234, false, 1, 1);
    const auto sharded = run_cross_scenario(1234, true, 2, 1);
    EXPECT_EQ(sequential, sharded);
}

TEST(ParallelEquivalence, ThreadedRunMatchesCooperativeRun) {
    const auto cooperative = run_cross_scenario(99, true, 2, 1);
    const auto threaded1 = run_cross_scenario(99, true, 2, 0);
    const auto threaded2 = run_cross_scenario(99, true, 2, 0);
    EXPECT_EQ(cooperative, threaded1);
    EXPECT_EQ(threaded1, threaded2);
}

// Four clusters in a ring of wide links, datagram traffic in every
// cluster and across every boundary; the parallel run must replay itself
// exactly at any thread count.
RunSignature run_ring_scenario(std::uint64_t seed, bool parallel, std::size_t threads) {
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> owned;
    if (parallel) {
        psim = std::make_unique<sim::ParallelSimulator>(4, threads);
        owned = std::make_unique<core::Internetwork>(seed, *psim);
    } else {
        owned = std::make_unique<core::Internetwork>(seed);
    }
    core::Internetwork& net = *owned;

    std::vector<core::Host*> hosts;
    std::vector<core::Gateway*> gws;
    for (std::uint32_t s = 0; s < 4; ++s) {
        const std::uint32_t shard = parallel ? s : 0u;
        auto& h = net.add_host("h" + std::to_string(s), shard);
        auto& g = net.add_gateway("g" + std::to_string(s), shard);
        net.connect(h, g, link::presets::ethernet_hop());
        hosts.push_back(&h);
        gws.push_back(&g);
    }
    link::LinkParams wide = link::presets::ethernet_hop();
    wide.propagation_delay = sim::milliseconds(5);
    for (std::uint32_t s = 0; s < 4; ++s) {
        net.connect(*gws[s], *gws[(s + 1) % 4], wide);
    }
    net.use_static_routes();

    std::vector<std::unique_ptr<app::VoiceOverUdp>> flows;
    for (std::uint32_t s = 0; s < 4; ++s) {
        flows.push_back(std::make_unique<app::VoiceOverUdp>(
            *hosts[s], *hosts[(s + 1) % 4], static_cast<std::uint16_t>(6000 + s)));
        flows.back()->start(sim::seconds(20));
    }
    net.run_for(sim::seconds(30));

    RunSignature sig{};
    sig.events = parallel ? psim->events_processed() : net.sim().events_processed();
    sig.link_bytes = net.total_link_bytes();
    for (const auto& f : flows) sig.voice_received += f->report().frames_received;
    return sig;
}

TEST(ParallelEquivalence, FourShardRingMatchesSequentialAndItself) {
    const auto sequential = run_ring_scenario(7, false, 1);
    const auto coop = run_ring_scenario(7, true, 1);
    const auto threaded = run_ring_scenario(7, true, 0);
    EXPECT_EQ(sequential, coop);
    EXPECT_EQ(coop, threaded);
    EXPECT_GT(sequential.voice_received, 0u);
}

// --- lookahead as the global minimum ------------------------------------

TEST(ParallelLookahead, TinyBoundaryLatencyStaysCorrectAndLive) {
    // The boundary hop's latency (1us propagation at LAN rate) is far
    // below every other timescale in the scenario, so it sets the window
    // length: every voice frame crosses in its own short window, and any
    // off-by-one in the window bound shows up as a lost or misordered
    // packet — counted against the sequential twin.
    auto run = [](bool parallel) {
        std::unique_ptr<sim::ParallelSimulator> psim;
        std::unique_ptr<core::Internetwork> owned;
        if (parallel) {
            psim = std::make_unique<sim::ParallelSimulator>(2, 1);
            owned = std::make_unique<core::Internetwork>(11, *psim);
        } else {
            owned = std::make_unique<core::Internetwork>(11);
        }
        core::Internetwork& net = *owned;
        core::Host& a = net.add_host("a");
        core::Host& b = net.add_host("b", parallel ? 1u : 0u);
        link::LinkParams tight = link::presets::ethernet_hop();
        tight.propagation_delay = sim::microseconds(1);
        net.connect(a, b, tight);
        net.use_static_routes();

        app::VoiceOverUdp voice(a, b, 5004);
        voice.start(sim::seconds(5));
        net.run_for(sim::seconds(6));
        return voice.report().frames_received;
    };
    const auto sequential = run(false);
    const auto sharded = run(true);
    EXPECT_EQ(sequential, sharded);
    EXPECT_GT(sequential, 0u);
}

// --- the window rule ------------------------------------------------------

TEST(ParallelWindows, PastDeadlineMovesNoClock) {
    sim::ParallelSimulator psim(2, 1);
    psim.run_until(sim::Time(-5));
    EXPECT_EQ(psim.now(), sim::Time(0));
    EXPECT_EQ(psim.shard(0).now(), sim::Time(0));
    EXPECT_EQ(psim.shard(1).now(), sim::Time(0));

    psim.run_until(sim::seconds(1));
    psim.run_until(sim::milliseconds(500));
    EXPECT_EQ(psim.now(), sim::seconds(1));
    EXPECT_EQ(psim.shard(0).now(), sim::seconds(1));
    EXPECT_EQ(psim.shard(1).now(), sim::seconds(1));
}

TEST(ParallelWindows, IdleRunTakesAtMostOneWindow) {
    // With nothing pending the first reduction already lies past the
    // deadline, however short the boundary's lookahead.
    sim::ParallelSimulator psim(2, 1);
    core::Internetwork net(5, psim);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b", 1);
    link::LinkParams tight = link::presets::ethernet_hop();
    tight.propagation_delay = sim::microseconds(1);
    net.connect(a, b, tight);
    net.use_static_routes();

    net.run_for(sim::seconds(10));
    EXPECT_LE(psim.windows(), 1u);
    EXPECT_EQ(psim.shard(0).now(), sim::seconds(10));
    EXPECT_EQ(psim.shard(1).now(), sim::seconds(10));
}

// Host a sends 3,000 numbered datagrams at one instant to host b across a
// 10 Gb/s, 10 ms hop: every one is on the wire long before the first
// arrives, so they all cross in one window.
struct BurstSignature {
    std::uint64_t events;
    telemetry::CounterBlock counters;
    std::vector<std::string> links;
    std::vector<std::uint32_t> received;

    bool operator==(const BurstSignature&) const = default;
};

BurstSignature run_burst(bool parallel, std::size_t threads) {
    constexpr std::uint32_t kFrames = 3000;
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> owned;
    if (parallel) {
        psim = std::make_unique<sim::ParallelSimulator>(2, threads);
        owned = std::make_unique<core::Internetwork>(8, *psim);
    } else {
        owned = std::make_unique<core::Internetwork>(8);
    }
    core::Internetwork& net = *owned;
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b", parallel ? 1u : 0u);
    link::LinkParams fat = link::presets::ethernet_hop();
    fat.bits_per_second = 10'000'000'000;
    fat.propagation_delay = sim::milliseconds(10);
    fat.queue_capacity_packets = 4096;
    net.connect(a, b, fat);
    net.use_static_routes();

    BurstSignature sig{};
    b.ip().register_protocol(253, [&sig](const ip::Ipv4Header&,
                                         std::span<const std::uint8_t> payload,
                                         std::size_t) {
        std::uint32_t n = 0;
        std::memcpy(&n, payload.data(), sizeof n);
        sig.received.push_back(n);
    });
    std::vector<std::uint8_t> payload(64, 0);
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        std::memcpy(payload.data(), &i, sizeof i);
        EXPECT_TRUE(a.ip().send(253, b.address(), payload)) << i;
    }
    net.run_for(sim::seconds(1));

    sig.events = parallel ? psim->events_processed() : net.sim().events_processed();
    sig.counters = net.metrics().totals();
    // Every link-row field but the boundary flag, which is the one thing
    // the sharded run's cross-shard link reports differently.
    for (const auto& l : net.metrics_report().links) {
        std::ostringstream os;
        os << std::hexfloat << l.name << ' ' << l.pkts_a_to_b << ' ' << l.bytes_a_to_b << ' '
           << l.pkts_b_to_a << ' ' << l.bytes_b_to_a << ' ' << l.queue_drops << ' '
           << l.queue_bytes_dropped << ' ' << l.channel_lost << ' ' << l.channel_corrupted
           << ' ' << l.util_a_to_b << ' ' << l.util_b_to_a;
        sig.links.push_back(os.str());
    }
    return sig;
}

TEST(ParallelWindows, ThreeThousandFramesInOneWindowArriveInSendOrder) {
    const auto sequential = run_burst(false, 1);
    ASSERT_EQ(sequential.received.size(), 3000u);
    for (std::uint32_t i = 0; i < 3000; ++i) {
        ASSERT_EQ(sequential.received[i], i) << "out of order at " << i;
    }
    EXPECT_EQ(run_burst(true, 1), sequential);
    EXPECT_EQ(run_burst(true, 0), sequential);
}

// Host d in shard 1 is the far end of kLinks boundary links, one from
// each of kLinks hosts in shard 0. Every source sends one numbered
// datagram at time 0 over identical links, so all of them arrive in the
// same nanosecond; the merge must hand them over in channel-id order
// (connect order, which is also the sequential twin's send order).
struct FanInSignature {
    std::uint64_t events;
    telemetry::CounterBlock counters;
    std::vector<std::uint32_t> received;

    bool operator==(const FanInSignature&) const = default;
};

FanInSignature run_fan_in(bool parallel, std::size_t threads) {
    constexpr std::uint32_t kLinks = 80;
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> owned;
    if (parallel) {
        psim = std::make_unique<sim::ParallelSimulator>(2, threads);
        owned = std::make_unique<core::Internetwork>(21, *psim);
    } else {
        owned = std::make_unique<core::Internetwork>(21);
    }
    core::Internetwork& net = *owned;
    core::Host& d = net.add_host("d", parallel ? 1u : 0u);
    std::vector<core::Host*> sources;
    for (std::uint32_t i = 0; i < kLinks; ++i) {
        sources.push_back(&net.add_host("s" + std::to_string(i)));
        net.connect(*sources.back(), d, link::presets::ethernet_hop());
    }
    net.use_static_routes();

    FanInSignature sig{};
    d.ip().register_protocol(253, [&sig](const ip::Ipv4Header&,
                                         std::span<const std::uint8_t> payload,
                                         std::size_t) {
        std::uint32_t n = 0;
        std::memcpy(&n, payload.data(), sizeof n);
        sig.received.push_back(n);
    });
    std::vector<std::uint8_t> payload(64, 0);
    for (std::uint32_t i = 0; i < kLinks; ++i) {
        std::memcpy(payload.data(), &i, sizeof i);
        // d's end of link i, so every datagram crosses its own link.
        EXPECT_TRUE(sources[i]->ip().send(253, net.topology().links()[i].addr_b, payload));
    }
    net.run_for(sim::seconds(1));

    sig.events = parallel ? psim->events_processed() : net.sim().events_processed();
    sig.counters = net.metrics().totals();
    return sig;
}

TEST(ParallelWindows, EqualTimeArrivalsFromManyChannelsDeliverInChannelOrder) {
    const auto sequential = run_fan_in(false, 1);
    ASSERT_EQ(sequential.received.size(), 80u);
    for (std::uint32_t i = 0; i < 80; ++i) {
        ASSERT_EQ(sequential.received[i], i) << "out of channel order at " << i;
    }
    EXPECT_EQ(run_fan_in(true, 1), sequential);
    EXPECT_EQ(run_fan_in(true, 0), sequential);
}

// --- allocation freedom across the boundary -----------------------------

TEST(ParallelAllocation, SteadyStateCrossShardForwardingIsAllocationFree) {
    sim::ParallelSimulator psim(2, 1);  // cooperative: no thread spawns
    core::Internetwork net(42, psim);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b", 1);
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();

    std::uint64_t delivered = 0;
    b.ip().register_protocol(253, [&delivered](const ip::Ipv4Header&,
                                               std::span<const std::uint8_t>,
                                               std::size_t) { ++delivered; });
    const std::vector<std::uint8_t> payload(512, 0xab);
    const auto dst = b.address();

    // Warm both shards' pools, the outbox slots, the staging heap,
    // and the driver's scratch vectors.
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(a.ip().send(253, dst, payload));
        net.run_for(sim::milliseconds(5));
    }
    ASSERT_EQ(delivered, 64u);

    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    constexpr std::uint64_t kRounds = 256;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        a.ip().send(253, dst, payload);
        net.run_for(sim::milliseconds(5));
    }
    const std::uint64_t delta = g_heap_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(delivered, 64u + kRounds);
    EXPECT_EQ(delta, 0u) << "heap allocations on the steady-state boundary path";
}

// --- shard-safe measurement utilities -----------------------------------

TEST(StatsMerge, RunningStatsMergeMatchesSinglePass) {
    util::RunningStats all, lo, hi;
    for (int i = 0; i < 1000; ++i) {
        const double x = 0.001 * i * i - 3.0 * i + 7.0;
        all.add(x);
        (i % 2 == 0 ? lo : hi).add(x);
    }
    util::RunningStats merged = lo;
    merged.merge(hi);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_NEAR(merged.mean(), all.mean(), 1e-9 * std::abs(all.mean()));
    EXPECT_NEAR(merged.variance(), all.variance(), 1e-6 * all.variance());
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
    EXPECT_NEAR(merged.sum(), all.sum(), 1e-9 * std::abs(all.sum()));

    util::RunningStats empty;
    merged.merge(empty);  // merging empty is a no-op
    EXPECT_EQ(merged.count(), all.count());
    empty.merge(all);  // merging into empty copies
    EXPECT_EQ(empty.count(), all.count());
    EXPECT_NEAR(empty.mean(), all.mean(), 1e-12);
}

TEST(StatsMerge, PercentilesAndHistogramMerge) {
    util::Percentiles all, p1, p2;
    util::Histogram h_all(0, 100, 10), h1(0, 100, 10), h2(0, 100, 10);
    for (int i = 0; i < 500; ++i) {
        const double x = (i * 37) % 101;
        all.add(x);
        h_all.add(x);
        (i < 250 ? p1 : p2).add(x);
        (i < 250 ? h1 : h2).add(x);
    }
    p1.merge(p2);
    EXPECT_EQ(p1.count(), all.count());
    EXPECT_EQ(p1.median(), all.median());
    EXPECT_EQ(p1.percentile(99), all.percentile(99));

    h1.merge(h2);
    EXPECT_EQ(h1.total(), h_all.total());
    for (std::size_t i = 0; i < h_all.bucket_count(); ++i) {
        EXPECT_EQ(h1.bucket(i), h_all.bucket(i)) << "bucket " << i;
    }
    util::Histogram mismatched(0, 50, 10);
    EXPECT_THROW(h1.merge(mismatched), std::invalid_argument);
}

TEST(Logging, ConcurrentWritersNeverInterleaveMidLine) {
    const auto prev = util::log_threshold();
    util::set_log_threshold(util::LogLevel::Info);
    ::testing::internal::CaptureStderr();
    constexpr int kThreads = 4;
    constexpr int kLines = 200;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([t] {
            const std::string msg(64, static_cast<char>('A' + t));
            for (int i = 0; i < kLines; ++i) {
                util::log_line(util::LogLevel::Info, "shard", msg);
            }
        });
    }
    for (auto& w : writers) w.join();
    const std::string captured = ::testing::internal::GetCapturedStderr();
    util::set_log_threshold(prev);

    // Every line must be one writer's complete message: 64 identical
    // letters, never a mix.
    std::istringstream is(captured);
    std::string line;
    int complete = 0;
    while (std::getline(is, line)) {
        const auto pos = line.find_last_of(' ');
        ASSERT_NE(pos, std::string::npos) << line;
        const std::string body = line.substr(pos + 1);
        ASSERT_EQ(body.size(), 64u) << "torn line: " << line;
        for (char c : body) ASSERT_EQ(c, body[0]) << "interleaved line: " << line;
        ++complete;
    }
    EXPECT_EQ(complete, kThreads * kLines);
}

}  // namespace
}  // namespace catenet
