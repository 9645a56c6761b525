// Shard-sweep benchmarks for the conservative parallel engine. Both
// benchmarks build the SAME clustered internetwork — K clusters of
// (hosts + gateway), clusters coupled only by wide-area links with 10ms
// of propagation (the lookahead) — and sweep the shard count over
// 1/2/4/8 with one OS thread per shard:
//
//   BM_ParallelPps  — constant-bit-rate datagram traffic inside every
//                     cluster plus sparse cross-cluster flows; items/sec
//                     is aggregate simulated packet deliveries per
//                     wall-clock second.
//   BM_ManyFlows    — one bulk TCP transfer per cluster (intra-cluster)
//                     plus cross-cluster voice; the transport-heavy mix.
//
// With 1 shard the ParallelSimulator degenerates to the plain engine plus
// a trivial driver loop, so the sweep's shards=1 row is the fair
// sequential baseline for the speedup ratio. The aggregate-throughput
// gate (>= 2.5x at 4 shards) only has meaning on a machine with >= 4
// schedulable cores; the `bench` target records whatever the current box
// provides, and CHANGES.md states the core count next to the numbers.
//
// Run via the `bench` target, which emits BENCH_parallel.json; its
// context records the run's CPU steal and the load average
// (host_load_main.h).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/bulk.h"
#include "app/voice.h"
#include "core/internetwork.h"
#include "host_load_main.h"
#include "ip/protocols.h"
#include "link/presets.h"
#include "sim/parallel.h"
#include "udp/udp.h"

namespace {

using namespace catenet;

constexpr std::uint32_t kClusters = 8;
constexpr std::uint32_t kHostsPerCluster = 2;

struct Fixture {
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> net;
    std::vector<core::Host*> hosts;     // kClusters * kHostsPerCluster
    std::vector<core::Gateway*> gws;    // kClusters
};

// K clusters, cluster c in shard c % shards; a ring of 10ms wide-area
// links between neighboring clusters. The partitioner would produce the
// same assignment (the wide links are the only cuttable high-latency
// edges); spelling it out keeps the bench self-describing.
Fixture build(std::size_t shards) {
    Fixture f;
    f.psim = std::make_unique<sim::ParallelSimulator>(shards, /*threads=*/0);
    f.net = std::make_unique<core::Internetwork>(4242, *f.psim);
    link::LinkParams wide = link::presets::ethernet_hop();
    wide.propagation_delay = sim::milliseconds(10);
    for (std::uint32_t c = 0; c < kClusters; ++c) {
        const auto shard = static_cast<std::uint32_t>(c % shards);
        auto& g = f.net->add_gateway("g" + std::to_string(c), shard);
        f.gws.push_back(&g);
        for (std::uint32_t h = 0; h < kHostsPerCluster; ++h) {
            auto& host = f.net->add_host(
                "h" + std::to_string(c) + "_" + std::to_string(h), shard);
            f.net->connect(host, g, link::presets::ethernet_hop());
            f.hosts.push_back(&host);
        }
    }
    for (std::uint32_t c = 0; c < kClusters; ++c) {
        f.net->connect(*f.gws[c], *f.gws[(c + 1) % kClusters], wide);
    }
    f.net->use_static_routes();
    return f;
}

// Constant-bit-rate proto-253 datagram source: one packet every `period`
// per sender, re-armed from inside the engine so the whole run is one
// run_for call.
class CbrSource {
public:
    CbrSource(core::Host& from, util::Ipv4Address to, sim::Time period)
        : from_(from), to_(to), period_(period), payload_(512, 0xcb) {}

    void start() { tick(); }

private:
    void tick() {
        from_.ip().send(253, to_, payload_);
        from_.simulator().schedule_after(period_, [this] { tick(); });
    }

    core::Host& from_;
    util::Ipv4Address to_;
    sim::Time period_;
    std::vector<std::uint8_t> payload_;
};

void BM_ParallelPps(benchmark::State& state) {
    const auto shards = static_cast<std::size_t>(state.range(0));
    std::uint64_t total_delivered = 0;
    double sim_seconds = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Fixture f = build(shards);
        // One counter per host: hosts in different shards deliver from
        // different threads, so a shared counter would be a data race.
        std::vector<std::uint64_t> per_host(f.hosts.size(), 0);
        for (std::size_t i = 0; i < f.hosts.size(); ++i) {
            auto* slot = &per_host[i];
            f.hosts[i]->ip().register_protocol(
                253, [slot](const ip::Ipv4Header&,
                            std::span<const std::uint8_t>,
                            std::size_t) { ++*slot; });
        }
        std::vector<std::unique_ptr<CbrSource>> sources;
        // Dense intra-cluster traffic: each cluster's host 0 floods host 1.
        for (std::uint32_t c = 0; c < kClusters; ++c) {
            sources.push_back(std::make_unique<CbrSource>(
                *f.hosts[c * kHostsPerCluster],
                f.hosts[c * kHostsPerCluster + 1]->address(),
                sim::microseconds(200)));
        }
        // Sparse cross-cluster traffic keeps the boundary channels honest.
        for (std::uint32_t c = 0; c < kClusters; ++c) {
            sources.push_back(std::make_unique<CbrSource>(
                *f.hosts[c * kHostsPerCluster + 1],
                f.hosts[((c + 1) % kClusters) * kHostsPerCluster]->address(),
                sim::milliseconds(20)));
        }
        for (auto& s : sources) s->start();
        // Warm pools and outboxes outside the timed region.
        f.net->run_for(sim::milliseconds(50));
        state.ResumeTiming();

        f.net->run_for(sim::seconds(2));

        state.PauseTiming();
        for (const auto d : per_host) total_delivered += d;
        sim_seconds += 2.0;
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_delivered));
    state.counters["shards"] = static_cast<double>(shards);
    state.counters["sim_pps"] =
        sim_seconds > 0 ? static_cast<double>(total_delivered) / sim_seconds : 0;
}
BENCHMARK(BM_ParallelPps)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_ManyFlows(benchmark::State& state) {
    const auto shards = static_cast<std::size_t>(state.range(0));
    std::uint64_t total_bytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Fixture f = build(shards);
        std::vector<std::unique_ptr<app::BulkServer>> servers;
        std::vector<std::unique_ptr<app::BulkSender>> senders;
        for (std::uint32_t c = 0; c < kClusters; ++c) {
            auto* src = f.hosts[c * kHostsPerCluster];
            auto* dst = f.hosts[c * kHostsPerCluster + 1];
            servers.push_back(std::make_unique<app::BulkServer>(*dst, 21));
            senders.push_back(std::make_unique<app::BulkSender>(
                *src, dst->address(), 21, 512 * 1024));
            senders.back()->start();
        }
        std::vector<std::unique_ptr<app::VoiceOverUdp>> voices;
        for (std::uint32_t c = 0; c < kClusters; ++c) {
            voices.push_back(std::make_unique<app::VoiceOverUdp>(
                *f.hosts[c * kHostsPerCluster + 1],
                *f.hosts[((c + 1) % kClusters) * kHostsPerCluster],
                static_cast<std::uint16_t>(7000 + c)));
            voices.back()->start(sim::seconds(5));
        }
        state.ResumeTiming();

        f.net->run_for(sim::seconds(6));

        state.PauseTiming();
        for (const auto& s : servers) total_bytes += s->total_bytes_received();
        state.ResumeTiming();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(total_bytes));
    state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ManyFlows)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
    return catenet::bench::run_benchmarks_recording_host_load(argc, argv);
}
