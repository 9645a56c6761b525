// Determinism tests: the entire point of seeding every source of
// randomness is exact replay — identical seeds must produce identical
// packet-level behaviour, and different seeds must actually differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "app/bulk.h"
#include "app/voice.h"
#include "core/internetwork.h"
#include "link/presets.h"
#include "sim/parallel.h"

namespace catenet {
namespace {

/// One MetricsReport link row without its boundary flag: a sharded run's
/// cross-shard link is cut where the sequential twin's is not, and
/// everything else the two report must agree.
struct LinkSignature {
    std::string name;
    std::uint64_t pkts_a_to_b, bytes_a_to_b, pkts_b_to_a, bytes_b_to_a;
    double util_a_to_b, util_b_to_a;
    std::uint64_t queue_drops, channel_lost, channel_corrupted;

    bool operator==(const LinkSignature&) const = default;
    friend void PrintTo(const LinkSignature& l, std::ostream* os) {
        *os << l.name << " a>b " << l.pkts_a_to_b << "p/" << l.bytes_a_to_b << "B util "
            << l.util_a_to_b << ", b>a " << l.pkts_b_to_a << "p/" << l.bytes_b_to_a
            << "B util " << l.util_b_to_a << ", qdrop " << l.queue_drops << ", lost "
            << l.channel_lost << ", corrupt " << l.channel_corrupted;
    }
};

std::vector<LinkSignature> link_rows(const core::Internetwork& net) {
    std::vector<LinkSignature> rows;
    for (const auto& l : net.metrics_report().links) {
        rows.push_back(LinkSignature{l.name, l.pkts_a_to_b, l.bytes_a_to_b, l.pkts_b_to_a,
                                     l.bytes_b_to_a, l.util_a_to_b, l.util_b_to_a,
                                     l.queue_drops, l.channel_lost, l.channel_corrupted});
    }
    return rows;
}

/// One MetricsReport gauge row.
struct GaugeSignature {
    std::string name;
    std::uint64_t samples;
    double min, max, mean, last;

    bool operator==(const GaugeSignature&) const = default;
    friend void PrintTo(const GaugeSignature& g, std::ostream* os) {
        *os << g.name << " n=" << g.samples << " min=" << g.min << " max=" << g.max
            << " mean=" << g.mean << " last=" << g.last;
    }
};

std::vector<GaugeSignature> gauge_rows(const core::Internetwork& net) {
    std::vector<GaugeSignature> rows;
    for (const auto& g : net.metrics_report().gauges) {
        rows.push_back(GaugeSignature{g.name, g.samples, g.min, g.max, g.mean, g.last});
    }
    return rows;
}

struct RunSignature {
    std::uint64_t events;
    std::uint64_t link_bytes;
    std::uint64_t bytes_received;
    std::uint64_t retransmits;
    std::uint64_t voice_received;
    /// Registry totals: every telemetry counter of every node, merged.
    /// Slot-for-slot equality across replays (and across the sequential /
    /// sharded twins) is the counter registry's determinism contract.
    telemetry::CounterBlock counters;
    /// The report's link rows, in registration order.
    std::vector<LinkSignature> links;
    /// The report's gauge rows (empty unless sampling was enabled).
    std::vector<GaugeSignature> gauges;
    /// Events fired, summed over the report's engine rows (one per shard).
    std::uint64_t engine_events = 0;

    bool operator==(const RunSignature&) const = default;
};

RunSignature run_scenario(std::uint64_t seed) {
    core::Internetwork net(seed);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& g = net.add_gateway("g");
    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.03;
    lossy.jitter = sim::milliseconds(2);
    net.connect(a, g, link::presets::ethernet_hop());
    net.connect(g, b, lossy);
    net.use_static_routes();

    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 256 * 1024);
    sender.start();
    app::VoiceOverUdp voice(a, b, 5004);
    voice.start(sim::seconds(10));
    net.run_for(sim::seconds(60));

    RunSignature sig;
    sig.events = net.sim().events_processed();
    sig.link_bytes = net.total_link_bytes();
    sig.bytes_received = server.total_bytes_received();
    sig.retransmits = sender.socket_stats().retransmitted_segments;
    sig.voice_received = voice.report().frames_received;
    sig.counters = net.metrics().totals();
    sig.links = link_rows(net);
    return sig;
}

TEST(Determinism, SameSeedSamePacketsExactly) {
    const auto first = run_scenario(1234);
    const auto second = run_scenario(1234);
    EXPECT_EQ(first, second);
    EXPECT_GT(first.retransmits, 0u) << "scenario must actually exercise randomness";
}

TEST(Determinism, DifferentSeedsDiverge) {
    const auto first = run_scenario(1);
    const auto second = run_scenario(2);
    // Loss patterns differ, so at least one of these must differ.
    EXPECT_TRUE(first.events != second.events || first.link_bytes != second.link_bytes ||
                first.retransmits != second.retransmits);
}

/// The g-b trunk fails at `at` and comes back at `until`, each between
/// two run_for calls. With `far_host`, host b goes down and comes back
/// instead, and the trunk stays up.
struct TrunkOutage {
    sim::Time at;
    sim::Time until;
    bool far_host = false;
};

/// The g-b trunk the 2-shard run cuts: a lossless, jitterless Ethernet hop
/// with 10 ms of propagation, the shards' lookahead.
link::LinkParams wide_trunk() {
    link::LinkParams wide = link::presets::ethernet_hop();
    wide.propagation_delay = sim::milliseconds(10);
    return wide;
}

// The same discipline for the sharded engine: a 2-shard run must equal its
// sequential twin AND replay itself exactly under real threads. Every link
// direction, cut or not, draws from its own stream forked the same way, so
// the twins draw identical values on the lossy intra-shard hop and on the
// cut `trunk` whatever its channel model.
RunSignature run_sharded_scenario(std::uint64_t seed, bool parallel, std::size_t threads,
                                  sim::Time gauge_period = sim::Time(0),
                                  std::optional<TrunkOutage> outage = std::nullopt,
                                  const link::LinkParams& trunk_params = wide_trunk()) {
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> owned;
    if (parallel) {
        psim = std::make_unique<sim::ParallelSimulator>(2, threads);
        owned = std::make_unique<core::Internetwork>(seed, *psim);
    } else {
        owned = std::make_unique<core::Internetwork>(seed);
    }
    core::Internetwork& net = *owned;
    core::Host& a = net.add_host("a");
    core::Gateway& g = net.add_gateway("g");
    core::Host& b = net.add_host("b", parallel ? 1u : 0u);
    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.03;
    lossy.jitter = sim::milliseconds(2);
    net.connect(a, g, lossy);                                  // inside shard 0
    const std::size_t trunk = net.connect(g, b, trunk_params);  // the shard boundary
    net.use_static_routes();
    if (gauge_period > sim::Time(0)) net.enable_gauge_sampling(gauge_period);

    app::BulkServer server(b, 21);
    app::BulkSender sender(a, b.address(), 21, 256 * 1024);
    sender.start();
    app::VoiceOverUdp voice(a, b, 5004);
    voice.start(sim::seconds(10));
    if (outage) {
        net.run_for(outage->at);
        if (outage->far_host) {
            b.set_down(true);
        } else {
            net.fail_link(trunk);
        }
        net.run_for(outage->until - outage->at);
        if (outage->far_host) {
            b.set_down(false);
        } else {
            net.restore_link(trunk);
        }
        net.run_for(sim::seconds(60) - outage->until);
    } else {
        net.run_for(sim::seconds(60));
    }

    RunSignature sig;
    sig.events = parallel ? psim->events_processed() : net.sim().events_processed();
    sig.link_bytes = net.total_link_bytes();
    sig.bytes_received = server.total_bytes_received();
    sig.retransmits = sender.socket_stats().retransmitted_segments;
    sig.voice_received = voice.report().frames_received;
    sig.counters = net.metrics().totals();
    sig.links = link_rows(net);
    sig.gauges = gauge_rows(net);
    const telemetry::MetricsReport report = net.metrics_report();
    EXPECT_EQ(report.engines.size(), parallel ? 2u : 1u);
    for (const auto& engine : report.engines) sig.engine_events += engine.stats.events;
    return sig;
}

TEST(Determinism, ShardedRunEqualsSequentialTwin) {
    const auto sequential = run_sharded_scenario(1234, false, 1);
    const auto sharded = run_sharded_scenario(1234, true, 1);
    EXPECT_EQ(sequential, sharded);
    // The shards' engine rows fire, between them, the events the one
    // sequential engine fires: a cross-shard arrival counts once, where it
    // lands.
    EXPECT_EQ(sharded.engine_events, sequential.engine_events);
    EXPECT_EQ(sharded.engine_events, sharded.events);
    EXPECT_GT(sequential.retransmits, 0u) << "scenario must exercise randomness";
    // The merged per-shard counter blocks are slot-for-slot what one
    // sequential engine counted — not merely the same sums, the same
    // counters (the signature's operator== already folded this in, but the
    // telemetry claim deserves its own line).
    EXPECT_EQ(sequential.counters.slots, sharded.counters.slots);
    EXPECT_GT(sharded.counters.get(telemetry::Counter::IpFwd), 0u);
    EXPECT_GT(sharded.counters.get(telemetry::Counter::TcpRetransSegs), 0u);
    // Both kinds of port run one transmitter, so the cross-shard link
    // reports what the same-shard link does: packets, bytes, utilization
    // and queue drops.
    ASSERT_EQ(sharded.links.size(), 2u);
    EXPECT_EQ(sequential.links, sharded.links);
    EXPECT_GT(sharded.links[1].util_a_to_b, 0.0) << "the boundary link never reported busy time";
}

TEST(Determinism, ShardedCutTrunkFailureEqualsSequentialTwin) {
    // Clark's first goal across the shard boundary: the trunk the
    // partition cut fails while the transfer and the voice stream cross
    // it, and comes back later. What was in flight is lost on the wire in
    // both runs, TCP recovers, and the sharded run equals its twin. Voice
    // frames leave every 20 ms and spend 10 ms on the trunk, so failing it
    // 5 ms after the 300 ms frame leaves finds that frame on the wire
    // unless the lossy first hop dropped it, wherever TCP's draws put the
    // transfer.
    const TrunkOutage outage{sim::milliseconds(305), sim::seconds(2)};
    const auto sequential = run_sharded_scenario(1234, false, 1, sim::Time(0), outage);
    const auto sharded = run_sharded_scenario(1234, true, 1, sim::Time(0), outage);
    EXPECT_EQ(sequential, sharded);  // events, counter totals, link rows, ...
    ASSERT_EQ(sharded.links.size(), 2u);
    EXPECT_EQ(sequential.links, sharded.links);
    EXPECT_GT(sharded.links[1].channel_lost, 0u) << "nothing was on the trunk when it failed";
    EXPECT_GT(sharded.counters.get(telemetry::Counter::IpDropIfaceDown), 0u)
        << "no traffic met the dead trunk";
    EXPECT_EQ(sharded.bytes_received, 256u * 1024u) << "the transfer did not survive";
    EXPECT_EQ(run_sharded_scenario(1234, true, 0, sim::Time(0), outage), sharded);
}

TEST(Determinism, ShardedLossyCutTrunkEqualsSequentialTwin) {
    // Loss, jitter and bit errors on the trunk the partition cut. Each
    // direction draws from its own stream whether or not a shard boundary
    // cuts the link, so the sharded run equals its sequential twin draw
    // for draw, cooperatively and with a thread per shard.
    link::LinkParams trunk = wide_trunk();
    trunk.drop_probability = 0.03;
    trunk.jitter = sim::milliseconds(2);
    trunk.bit_error_rate = 1e-6;
    const auto sequential = run_sharded_scenario(1234, false, 1, sim::Time(0), std::nullopt, trunk);
    const auto sharded = run_sharded_scenario(1234, true, 1, sim::Time(0), std::nullopt, trunk);
    EXPECT_EQ(sequential, sharded);  // events, counter totals, link rows, ...
    ASSERT_EQ(sharded.links.size(), 2u);
    EXPECT_EQ(sequential.links, sharded.links);
    EXPECT_GT(sharded.links[1].channel_lost, 0u) << "the cut trunk never drew a loss";
    EXPECT_GT(sharded.links[1].channel_corrupted, 0u) << "the cut trunk never drew a bit error";
    EXPECT_EQ(run_sharded_scenario(1234, true, 0, sim::Time(0), std::nullopt, trunk), sharded);
}

TEST(Determinism, ShardedLossyCutTrunkIntoADownHostEqualsSequentialTwin) {
    // Host b, past the cut, goes down while the lossy trunk stays up: g's
    // shard keeps drawing g->b losses while b's shard counts every
    // arrival at the dead port as that direction's loss, in the same
    // windows. Both counts land in one field, and the sharded run still
    // equals its twin, cooperatively and with a thread per shard.
    link::LinkParams trunk = wide_trunk();
    trunk.drop_probability = 0.03;
    trunk.jitter = sim::milliseconds(2);
    const TrunkOutage outage{sim::milliseconds(305), sim::seconds(2), /*far_host=*/true};
    const auto sequential = run_sharded_scenario(1234, false, 1, sim::Time(0), outage, trunk);
    const auto sharded = run_sharded_scenario(1234, true, 1, sim::Time(0), outage, trunk);
    EXPECT_EQ(sequential, sharded);
    ASSERT_EQ(sharded.links.size(), 2u);
    EXPECT_EQ(sequential.links, sharded.links);
    // Voice alone sends 85 frames into the dead host while it is down;
    // the trunk's 3% draws lose a few of the run's packets besides.
    EXPECT_GT(sharded.links[1].channel_lost, 50u);
    EXPECT_EQ(sharded.bytes_received, 256u * 1024u) << "the transfer did not survive";
    EXPECT_EQ(run_sharded_scenario(1234, true, 0, sim::Time(0), outage, trunk), sharded);
}

TEST(Determinism, ShardedRunReplaysExactlyUnderThreads) {
    const auto first = run_sharded_scenario(555, true, 0);
    const auto second = run_sharded_scenario(555, true, 0);
    const auto cooperative = run_sharded_scenario(555, true, 1);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, cooperative);
}

TEST(Determinism, ShardedGaugesSampleEachPortOnItsOwnShard) {
    // Each boundary port's queue-depth and utilization series are sampled
    // by the engine of the shard that owns the port, so a threaded run
    // reads no port from the other shard's thread, and it replays exactly.
    const sim::Time period = sim::milliseconds(10);
    const auto threaded = run_sharded_scenario(555, true, 0, period);
    const auto again = run_sharded_scenario(555, true, 0, period);
    const auto cooperative = run_sharded_scenario(555, true, 1, period);
    EXPECT_EQ(threaded, again);
    EXPECT_EQ(threaded, cooperative);
    for (const char* name : {"g-b:a.qdepth", "g-b:b.qdepth", "g-b:a.util", "g-b:b.util"}) {
        const auto it = std::find_if(threaded.gauges.begin(), threaded.gauges.end(),
                                     [name](const GaugeSignature& g) { return g.name == name; });
        ASSERT_NE(it, threaded.gauges.end()) << name << " was never registered";
        EXPECT_GT(it->samples, 0u) << name;
        if (std::string(name) == "g-b:a.util") {
            EXPECT_GT(it->max, 0.0) << "the data direction never showed busy time";
        }
    }
}

// Property: replay stability across many seeds (each seed replays itself).
class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, ReplaysExactly) {
    EXPECT_EQ(run_scenario(GetParam()), run_scenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(7, 77, 777, 7777));

}  // namespace
}  // namespace catenet
