// Scale benchmark: the tentpole measurement for ROADMAP item 3. Builds a
// generated two-tier internet (default: 1024 transit gateways, 512 stub
// LANs x 200 compact hosts = 103,424 nodes), reports
//   - build time (topology + bulk-loaded oracle routes),
//   - marginal resident bytes per host-class node (mallinfo2 heap delta
//     across the leaf-population phase / hosts added),
//   - steady-state forwarding pkts/s for leaf-to-leaf traffic waves
//     crossing the mesh, with a phase breakdown (inject vs drain) and the
//     per-hop rate (gateway forwards/s) alongside the end-to-end rate,
//   - a raw LPM lookup rate: a tight loop probing one transit gateway's
//     full routing table across a spread of leaf destinations — the
//     route-cache *miss* path, which the soak alone cannot see (the
//     set-associative cache absorbs nearly every train lookup, by
//     design),
//   - the heap each build phase keeps (gateways, trunks, leaf LANs, routes:
//     mallinfo2 snapshots between phases), per trunk and per installed
//     route, and the process's peak RSS (getrusage),
// and writes BENCH_scale.json. `--shards 1,2,4` builds and soaks the same
// internet once per listed shard count: 1 is the sequential engine, N > 1
// a ParallelSimulator of N shards with one thread each, partitioned by
// plan_two_tier(params, N). Each soak records its windows and the CPU
// steal /proc/stat showed while it ran (a shared VM's steal moves the
// sharded rates most), and the JSON records the load average at the end. With --gate, exits nonzero unless the scale
// budgets hold: build <= 5 s and <= 150 bytes/host, trunk heap <= 4,096
// bytes per trunk and route heap <= 28 bytes per installed route (the
// three heap budgets are skipped without mallinfo2), every injected
// datagram delivered, and every shard count's counter totals equal to the
// first's (the TopologyStore signature hashes shard ids, so it differs by
// design); --min-pps adds a floor on every soak's end-to-end rate (0
// disables it; absolute floors are only a backstop on a noisy box, and
// perf claims go through the interleaved A/B harness in
// bench/ab_compare.sh).
//
// Methodology notes. Bytes/host is *marginal*, not amortized: the heap is
// snapshotted after the mesh (gateways + trunks) is built and again after
// the leaf population lands, so gateway FIBs, link objects and registry
// entries — costs that scale with the mesh, not the population — are
// excluded by construction. That is the number the 150-byte budget
// governs: what one more host costs. pkts/s is wall-clock packets
// delivered end to end (inject at a leaf, tally at the destination leaf's
// stub), not per-hop forwards; hops_per_second is the per-hop companion
// (Σ gateway IpFwd over the soak), the number comparable to the micro
// forwarding benchmarks.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#if defined(__GLIBC__) || defined(__GLIBC_MINOR__)
#include <malloc.h>
#define CATENET_HAVE_MALLINFO2 1
#else
#define CATENET_HAVE_MALLINFO2 0
#endif

#include "core/internetwork.h"
#include "core/topology_gen.h"
#include "host_load.h"
#include "sim/parallel.h"

namespace {

using namespace catenet;
using bench::cpu_ticks;
using bench::CpuTicks;

struct Options {
    std::uint32_t gateways = 1024;
    std::uint32_t lans = 512;
    std::uint32_t hosts = 200;
    std::uint64_t seed = 7;
    std::uint32_t rounds = 32;  ///< traffic waves (one train per LAN each)
    std::uint32_t train = 16;   ///< datagrams per (src, dst) pair per wave
    std::vector<std::uint32_t> shards{1};  ///< one build and soak per count
    double min_pps = 0.0;       ///< --gate floor on end-to-end pkts/s
    std::string out = "BENCH_scale.json";
    bool gate = false;
};

std::size_t heap_bytes() {
#if CATENET_HAVE_MALLINFO2
    // uordblks: total allocated space, arena + mmapped. The marginal
    // delta between two snapshots is what the intervening phase kept.
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#else
    return 0;  // no allocator introspection on this libc; gate is skipped
#endif
}

/// The process's peak resident set so far, in MB (ru_maxrss is in KiB).
double peak_rss_mb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

/// "1,2,4" -> {1, 2, 4}; every count must be at least 1.
std::vector<std::uint32_t> parse_counts(const char* v) {
    std::vector<std::uint32_t> counts;
    for (char* end = nullptr;; v = end + 1) {
        const unsigned long n = std::strtoul(v, &end, 10);
        if (end == v || n == 0 || n > 64 || (*end != ',' && *end != '\0')) {
            std::fprintf(stderr, "--shards wants counts in 1..64 like 1,2,4\n");
            std::exit(2);
        }
        counts.push_back(static_cast<std::uint32_t>(n));
        if (*end == '\0') return counts;
    }
}

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char* flag) -> const char* {
            if (std::strcmp(argv[i], flag) != 0) return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (const char* v = value("--gateways")) {
            opt.gateways = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        } else if (const char* v = value("--lans")) {
            opt.lans = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        } else if (const char* v = value("--hosts")) {
            opt.hosts = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        } else if (const char* v = value("--seed")) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value("--rounds")) {
            opt.rounds = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        } else if (const char* v = value("--shards")) {
            opt.shards = parse_counts(v);
        } else if (const char* v = value("--train")) {
            opt.train = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
            if (opt.train == 0) opt.train = 1;
        } else if (const char* v = value("--min-pps")) {
            opt.min_pps = std::strtod(v, nullptr);
        } else if (const char* v = value("--out")) {
            opt.out = v;
        } else if (std::strcmp(argv[i], "--gate") == 0) {
            opt.gate = true;
        } else {
            std::fprintf(stderr,
                         "usage: bench_scale [--gateways K] [--lans N] [--hosts H]\n"
                         "                   [--seed S] [--rounds R] [--shards N[,N...]]\n"
                         "                   [--train T] [--min-pps P] [--out FILE]\n"
                         "                   [--gate]\n");
            std::exit(2);
        }
    }
    return opt;
}

/// One build and soak of the internet on `shards` engines.
struct Run {
    std::uint32_t shards = 1;
    double build_seconds = 0.0;
    double route_seconds = 0.0;
    double bytes_per_host = 0.0;
    /// heap_bytes() before the build and after each of its phases.
    std::size_t heap_start = 0;
    std::size_t heap_gateways = 0;
    std::size_t heap_trunks = 0;
    std::size_t heap_leaf_lans = 0;
    std::size_t heap_routes = 0;
    std::size_t trunks = 0;
    std::size_t installed_routes = 0;  ///< summed over the gateways' tables
    double trunk_heap_per_trunk = 0.0;
    double route_heap_per_route = 0.0;
    std::uint64_t lpm_lookups = 0;
    double lpm_seconds = 0.0;
    double lpm_lookups_per_second = 0.0;
    std::size_t lpm_table_routes = 0;
    std::size_t lpm_destinations = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t hops = 0;
    std::uint64_t windows = 0;  ///< ParallelSimulator::windows(); 0 sequential
    double soak_seconds = 0.0;
    double inject_seconds = 0.0;
    double drain_seconds = 0.0;
    double pkts_per_second = 0.0;
    double hops_per_second = 0.0;
    double steal_pct = 0.0;  ///< machine-wide CPU steal over the soak
    telemetry::CounterBlock totals;
};

Run build_and_soak(const Options& opt, const core::TwoTierParams& params,
                   std::uint32_t shards) {
    Run run;
    run.shards = shards;
    // The driver outlives the internet bound to it.
    std::unique_ptr<sim::ParallelSimulator> psim;
    std::unique_ptr<core::Internetwork> owned;
    if (shards > 1) {
        psim = std::make_unique<sim::ParallelSimulator>(shards, 0);
        owned = std::make_unique<core::Internetwork>(opt.seed, *psim);
    } else {
        owned = std::make_unique<core::Internetwork>(opt.seed);
    }
    core::Internetwork& net = *owned;
    const auto t_build = std::chrono::steady_clock::now();

    // Phase 1: the transit mesh (plan + gateways + trunks).
    run.heap_start = heap_bytes();
    const core::TwoTierPlan plan = core::plan_two_tier(params, shards);
    std::vector<core::Gateway*> gateways;
    gateways.reserve(params.gateways);
    for (std::uint32_t i = 0; i < params.gateways; ++i) {
        gateways.push_back(
            &net.add_gateway("gw" + std::to_string(i), plan.gateway_shard[i]));
    }
    run.heap_gateways = heap_bytes();
    for (const auto& [a, b] : plan.trunks) {
        net.connect(*gateways[a], *gateways[b], params.trunk);
    }
    run.trunks = plan.trunks.size();

    // Phase 2: the leaf population, bracketed by heap snapshots. The
    // reservation happens *inside* the bracket: the node arrays' capacity
    // is per-host cost and must be charged to the hosts, not the mesh.
    run.heap_trunks = heap_bytes();
    net.topology().reserve_nodes(
        params.gateways + std::size_t{params.lans} * params.hosts_per_lan,
        std::size_t{params.lans} * params.hosts_per_lan);
    std::vector<std::uint32_t> leaf_lans;
    leaf_lans.reserve(params.lans);
    for (std::uint32_t l = 0; l < params.lans; ++l) {
        leaf_lans.push_back(net.add_leaf_lan(*gateways[plan.lan_home[l]],
                                             params.hosts_per_lan,
                                             "leaf" + std::to_string(l)));
    }
    run.heap_leaf_lans = heap_bytes();

    // Phase 3: oracle routes, one bulk load per gateway.
    const auto t_routes = std::chrono::steady_clock::now();
    net.use_static_routes();
    run.route_seconds = seconds_since(t_routes);
    run.build_seconds = seconds_since(t_build);
    run.heap_routes = heap_bytes();
    for (const core::Gateway* gw : gateways) {
        run.installed_routes += gw->ip().routing_table().size();
    }
    // The two per-item costs --gate bounds: heap per trunk (its ports'
    // queues reserve no slots) and per installed route (every gateway
    // holds one Route per destination network).
    const auto per = [](std::size_t after, std::size_t before, std::size_t n) {
        return after > before && n > 0
                   ? static_cast<double>(after - before) / static_cast<double>(n)
                   : 0.0;
    };
    run.trunk_heap_per_trunk = per(run.heap_trunks, run.heap_gateways, run.trunks);
    run.route_heap_per_route =
        per(run.heap_routes, run.heap_leaf_lans, run.installed_routes);

    // Phase 3.5: raw LPM rate on one transit gateway's full table. One
    // probe per destination, destinations striped across every leaf LAN,
    // so consecutive probes land in different /24s — each lookup is the
    // path a route-cache miss takes. The first pass is untimed warmup.
    core::TopologyStore& topo = net.topology();
    const auto& lpm_table =
        gateways[params.gateways / 2]->ip().routing_table();
    std::vector<util::Ipv4Address> probe_dsts;
    probe_dsts.reserve(params.lans);
    for (std::uint32_t l = 0; l < params.lans; ++l) {
        probe_dsts.push_back(
            topo.address(topo.leaf_host(leaf_lans[l], l % params.hosts_per_lan)));
    }
    std::uintptr_t lookup_sink = 0;
    for (const auto dst : probe_dsts) {
        lookup_sink += reinterpret_cast<std::uintptr_t>(lpm_table.lookup(dst).get());
    }
    constexpr std::uint64_t kLookupTarget = 1u << 21;
    const std::uint32_t lpm_reps = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, kLookupTarget / probe_dsts.size()));
    const auto t_lpm = std::chrono::steady_clock::now();
    for (std::uint32_t rep = 0; rep < lpm_reps; ++rep) {
        for (const auto dst : probe_dsts) {
            lookup_sink +=
                reinterpret_cast<std::uintptr_t>(lpm_table.lookup(dst).get());
        }
    }
    run.lpm_seconds = seconds_since(t_lpm);
    run.lpm_lookups = std::uint64_t{lpm_reps} * probe_dsts.size();
    run.lpm_lookups_per_second =
        run.lpm_seconds > 0 ? static_cast<double>(run.lpm_lookups) / run.lpm_seconds
                            : 0.0;
    run.lpm_table_routes = lpm_table.size();
    run.lpm_destinations = probe_dsts.size();
    if (lookup_sink == 0) {
        std::fprintf(stderr, "bench_scale: every LPM probe missed\n");
    }

    run.bytes_per_host = per(run.heap_leaf_lans, run.heap_trunks,
                             std::size_t{params.lans} * params.hosts_per_lan);

    // Phase 4: steady-state forwarding soak. Each wave injects one train
    // per LAN (host i of LAN l toward host i of the LAN half the ring
    // away), then drains; paths spread across the whole mesh. The inject
    // and drain phases are timed separately so the JSON shows where the
    // soak's wall clock actually goes.
    const std::uint8_t payload[8] = {0xC5, 0, 0, 0, 0, 0, 0, 0};
    std::uint64_t hops_before = 0;
    for (const core::Gateway* gw : gateways) {
        hops_before += gw->ip().stats().forwarded;
    }
    const CpuTicks ticks_before = cpu_ticks();
    const auto t_soak = std::chrono::steady_clock::now();
    for (std::uint32_t round = 0; round < opt.rounds; ++round) {
        const std::uint32_t host_index = round % params.hosts_per_lan;
        const auto t_inject = std::chrono::steady_clock::now();
        for (std::uint32_t l = 0; l < params.lans; ++l) {
            const std::uint32_t dst_lan = (l + params.lans / 2) % params.lans;
            if (dst_lan == l) continue;
            const core::NodeId src = topo.leaf_host(leaf_lans[l], host_index);
            const core::NodeId dst = topo.leaf_host(leaf_lans[dst_lan], host_index);
            run.injected += topo.leaf_inject_train(src, topo.address(dst), 253,
                                                   payload, opt.train, 255);
        }
        run.inject_seconds += seconds_since(t_inject);
        const auto t_drain = std::chrono::steady_clock::now();
        net.run_for(sim::seconds(2));  // drain the wave completely
        run.drain_seconds += seconds_since(t_drain);
    }
    run.soak_seconds = seconds_since(t_soak);
    run.steal_pct = bench::steal_pct(ticks_before, cpu_ticks());
    run.delivered = topo.leaf_delivered_total();
    for (const core::Gateway* gw : gateways) {
        run.hops += gw->ip().stats().forwarded;
    }
    run.hops -= hops_before;
    run.pkts_per_second = run.soak_seconds > 0
                              ? static_cast<double>(run.delivered) / run.soak_seconds
                              : 0.0;
    run.hops_per_second =
        run.soak_seconds > 0 ? static_cast<double>(run.hops) / run.soak_seconds : 0.0;
    run.windows = psim != nullptr ? psim->windows() : 0;
    run.totals = net.metrics().totals();
    return run;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);

    core::TwoTierParams params;
    params.gateways = opt.gateways;
    params.lans = opt.lans;
    params.hosts_per_lan = opt.hosts;
    params.seed = opt.seed;
    params.compact_hosts = true;
    params.install_routes = false;  // phased in build_and_soak, so each is timed
    // A fast, deep-queued core: the benchmark measures the simulator's
    // forwarding machinery, not a 10 Mb/s bottleneck's queueing.
    params.trunk.bits_per_second = 1'000'000'000;
    params.trunk.propagation_delay = sim::microseconds(50);
    params.trunk.queue_capacity_packets = 256;

    const std::size_t total_hosts = std::size_t{params.lans} * params.hosts_per_lan;
    const std::size_t total_nodes = total_hosts + params.gateways;
    std::printf("bench_scale: %zu nodes (%u gateways, %u LANs x %u hosts)\n",
                total_nodes, params.gateways, params.lans, params.hosts_per_lan);

    std::vector<Run> runs;
    bool build_ok = true;
    bool memory_ok = true;
    bool trunk_heap_ok = true;
    bool route_heap_ok = true;
    bool pps_ok = true;
    bool delivered_ok = true;
    bool totals_ok = true;
    for (const std::uint32_t shards : opt.shards) {
        runs.push_back(build_and_soak(opt, params, shards));
        const Run& r = runs.back();
        const bool build_fits = r.build_seconds <= 5.0;
        const bool memory_fits = !CATENET_HAVE_MALLINFO2 || r.bytes_per_host <= 150.0;
        const bool trunk_heap_fits =
            !CATENET_HAVE_MALLINFO2 || r.trunk_heap_per_trunk <= 4096.0;
        const bool route_heap_fits =
            !CATENET_HAVE_MALLINFO2 || r.route_heap_per_route <= 28.0;
        build_ok = build_ok && build_fits;
        memory_ok = memory_ok && memory_fits;
        trunk_heap_ok = trunk_heap_ok && trunk_heap_fits;
        route_heap_ok = route_heap_ok && route_heap_fits;
        pps_ok = pps_ok && (opt.min_pps <= 0.0 || r.pkts_per_second >= opt.min_pps);
        delivered_ok = delivered_ok && r.delivered == r.injected;
        totals_ok = totals_ok && r.totals == runs.front().totals;

        std::printf("[%u shard%s]\n", shards, shards == 1 ? "" : "s");
        std::printf("  build: %.3f s (routes %.3f s)  [budget 5 s: %s]\n",
                    r.build_seconds, r.route_seconds, build_fits ? "ok" : "FAIL");
        std::printf("  marginal bytes/host: %.1f  [budget 150: %s]\n", r.bytes_per_host,
                    CATENET_HAVE_MALLINFO2 ? (memory_fits ? "ok" : "FAIL") : "skipped");
        const auto mb = [](std::size_t after, std::size_t before) {
            return after > before ? static_cast<double>(after - before) / 1e6 : 0.0;
        };
        std::printf("  heap by phase: gateways %.2f MB, trunks %.2f MB, leaf LANs %.2f MB, "
                    "routes %.2f MB\n",
                    mb(r.heap_gateways, r.heap_start), mb(r.heap_trunks, r.heap_gateways),
                    mb(r.heap_leaf_lans, r.heap_trunks), mb(r.heap_routes, r.heap_leaf_lans));
        std::printf("    %.1f B per trunk (%zu)  [budget 4096: %s], %.1f B per route (%zu)  "
                    "[budget 28: %s]\n",
                    r.trunk_heap_per_trunk, r.trunks,
                    CATENET_HAVE_MALLINFO2 ? (trunk_heap_fits ? "ok" : "FAIL") : "skipped",
                    r.route_heap_per_route, r.installed_routes,
                    CATENET_HAVE_MALLINFO2 ? (route_heap_fits ? "ok" : "FAIL") : "skipped");
        std::printf("  LPM: %.2f M lookups/s (%llu probes over %zu dsts, %zu routes)\n",
                    r.lpm_lookups_per_second / 1e6,
                    static_cast<unsigned long long>(r.lpm_lookups), r.lpm_destinations,
                    r.lpm_table_routes);
        std::printf("  soak: %llu injected (trains of %u), %llu delivered%s\n",
                    static_cast<unsigned long long>(r.injected), opt.train,
                    static_cast<unsigned long long>(r.delivered),
                    r.delivered == r.injected ? "" : "  [FAIL: lost datagrams]");
        std::printf("    %.0f pkts/s end-to-end, %.0f hops/s (%llu forwards)\n",
                    r.pkts_per_second, r.hops_per_second,
                    static_cast<unsigned long long>(r.hops));
        std::printf("    phases: inject %.3f s, drain %.3f s, total %.3f s\n",
                    r.inject_seconds, r.drain_seconds, r.soak_seconds);
        std::printf("    windows %llu, CPU steal %.1f%%%s\n",
                    static_cast<unsigned long long>(r.windows), r.steal_pct,
                    r.totals == runs.front().totals
                        ? ""
                        : "  [FAIL: counter totals differ from the first run]");
    }
    if (opt.min_pps > 0.0) {
        std::printf("floor %.0f pkts/s: %s\n", opt.min_pps, pps_ok ? "ok" : "FAIL");
    }
    const double peak_rss = peak_rss_mb();
    std::printf("peak RSS: %.1f MB\n", peak_rss);

    // The top-level fields are the first listed shard count's; "soaks"
    // holds every count's soak. The first build runs cold and reads slower
    // than a later build of the same internet, so compare builds and route
    // passes across the rows, not against the top level alone.
    const Run& first = runs.front();
    FILE* f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_scale: cannot write %s\n", opt.out.c_str());
        return 3;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"bench_scale\",\n"
                 "  \"load_average\": \"%s\",\n"
                 "  \"gateways\": %u,\n"
                 "  \"lans\": %u,\n"
                 "  \"hosts_per_lan\": %u,\n"
                 "  \"total_nodes\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"build_seconds\": %.6f,\n"
                 "  \"route_seconds\": %.6f,\n"
                 "  \"bytes_per_host\": %.2f,\n"
                 "  \"mallinfo2_available\": %s,\n"
                 "  \"heap_start_bytes\": %zu,\n"
                 "  \"heap_after_gateways_bytes\": %zu,\n"
                 "  \"heap_after_trunks_bytes\": %zu,\n"
                 "  \"heap_after_leaf_lans_bytes\": %zu,\n"
                 "  \"heap_after_routes_bytes\": %zu,\n"
                 "  \"trunks\": %zu,\n"
                 "  \"installed_routes\": %zu,\n"
                 "  \"trunk_heap_per_trunk\": %.1f,\n"
                 "  \"route_heap_per_route\": %.2f,\n"
                 "  \"peak_rss_MB\": %.1f,\n"
                 "  \"soak_rounds\": %u,\n"
                 "  \"train\": %u,\n"
                 "  \"packets_injected\": %llu,\n"
                 "  \"packets_delivered\": %llu,\n"
                 "  \"lpm_lookups\": %llu,\n"
                 "  \"lpm_seconds\": %.6f,\n"
                 "  \"lpm_lookups_per_second\": %.0f,\n"
                 "  \"lpm_table_routes\": %zu,\n"
                 "  \"soak_seconds\": %.6f,\n"
                 "  \"inject_seconds\": %.6f,\n"
                 "  \"drain_seconds\": %.6f,\n"
                 "  \"pkts_per_second\": %.0f,\n"
                 "  \"hops_forwarded\": %llu,\n"
                 "  \"hops_per_second\": %.0f,\n"
                 "  \"soaks\": [\n",
                 bench::load_average().c_str(), params.gateways, params.lans,
                 params.hosts_per_lan, total_nodes,
                 static_cast<unsigned long long>(opt.seed), first.build_seconds,
                 first.route_seconds, first.bytes_per_host,
                 CATENET_HAVE_MALLINFO2 ? "true" : "false", first.heap_start,
                 first.heap_gateways, first.heap_trunks, first.heap_leaf_lans,
                 first.heap_routes, first.trunks, first.installed_routes,
                 first.trunk_heap_per_trunk, first.route_heap_per_route, peak_rss,
                 opt.rounds, opt.train,
                 static_cast<unsigned long long>(first.injected),
                 static_cast<unsigned long long>(first.delivered),
                 static_cast<unsigned long long>(first.lpm_lookups), first.lpm_seconds,
                 first.lpm_lookups_per_second, first.lpm_table_routes,
                 first.soak_seconds, first.inject_seconds, first.drain_seconds,
                 first.pkts_per_second, static_cast<unsigned long long>(first.hops),
                 first.hops_per_second);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run& r = runs[i];
        std::fprintf(f,
                     "    {\"shards\": %u, \"build_seconds\": %.6f, \"route_seconds\": %.6f, "
                     "\"packets_delivered\": %llu, \"soak_seconds\": %.6f, "
                     "\"pkts_per_second\": %.0f, \"hops_per_second\": %.0f, "
                     "\"windows\": %llu, \"cpu_steal_pct\": %.1f, "
                     "\"trunk_heap_per_trunk\": %.1f, \"route_heap_per_route\": %.2f}%s\n",
                     r.shards, r.build_seconds, r.route_seconds,
                     static_cast<unsigned long long>(r.delivered), r.soak_seconds,
                     r.pkts_per_second, r.hops_per_second,
                     static_cast<unsigned long long>(r.windows), r.steal_pct,
                     r.trunk_heap_per_trunk, r.route_heap_per_route,
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"min_pps\": %.0f,\n"
                 "  \"gate_build_le_5s\": %s,\n"
                 "  \"gate_bytes_per_host_le_150\": %s,\n"
                 "  \"gate_trunk_heap_per_trunk_le_4096\": %s,\n"
                 "  \"gate_route_heap_per_route_le_28\": %s,\n"
                 "  \"gate_min_pps\": %s,\n"
                 "  \"gate_all_delivered\": %s,\n"
                 "  \"gate_counter_totals_equal\": %s\n"
                 "}\n",
                 opt.min_pps, build_ok ? "true" : "false", memory_ok ? "true" : "false",
                 trunk_heap_ok ? "true" : "false", route_heap_ok ? "true" : "false",
                 pps_ok ? "true" : "false", delivered_ok ? "true" : "false",
                 totals_ok ? "true" : "false");
    std::fclose(f);

    if (opt.gate && (!build_ok || !memory_ok || !trunk_heap_ok || !route_heap_ok || !pps_ok ||
                     !delivered_ok || !totals_ok)) {
        return 1;
    }
    return 0;
}
