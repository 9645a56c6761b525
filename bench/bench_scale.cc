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
//     route-cache *miss* path. The soak alone cannot see the FIB (the
//     set-associative cache absorbs nearly every train lookup, by
//     design), so this is the number gate_scale.sh ablates,
// and writes BENCH_scale.json. With --gate, exits nonzero unless the
// ISSUE-7 budgets hold: build <= 5 s and <= 150 bytes/host; --min-pps adds
// a floor on the steady-state end-to-end rate (the ISSUE-9 regression
// gate; 0 disables it, and the A/B harness in bench/gate_scale.sh is the
// primary guard — absolute floors are only a backstop on a noisy box).
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
//
// Ablation: CATENET_NO_FIBFLAT=1 pins every gateway table's flat
// threshold to SIZE_MAX, forcing the binary-search LPM — one binary, two
// configurations, so gate_scale.sh can A/B the flattened FIB with shared
// code placement.
//
// Compile-compat: this source also builds against the pre-ISSUE-9 tree
// (bench/ab_compare.sh compiles the same bench into both worktrees), so
// the train-inject and flat-threshold calls go through SFINAE shims that
// fall back to the per-packet inject / a no-op when the API is absent.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#if defined(__GLIBC__) || defined(__GLIBC_MINOR__)
#include <malloc.h>
#define CATENET_HAVE_MALLINFO2 1
#else
#define CATENET_HAVE_MALLINFO2 0
#endif

#include "core/internetwork.h"
#include "core/topology_gen.h"

namespace {

using namespace catenet;

struct Options {
    std::uint32_t gateways = 1024;
    std::uint32_t lans = 512;
    std::uint32_t hosts = 200;
    std::uint64_t seed = 7;
    std::uint32_t rounds = 32;  ///< traffic waves (one train per LAN each)
    std::uint32_t train = 16;   ///< datagrams per (src, dst) pair per wave
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

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
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
                         "                   [--seed S] [--rounds R] [--train T]\n"
                         "                   [--min-pps P] [--out FILE] [--gate]\n");
            std::exit(2);
        }
    }
    return opt;
}

// --- pre-ISSUE-9 compile shims (see header comment) ---------------------

/// Train inject via TopologyStore::leaf_inject_train when present...
template <typename Topo>
auto inject_train(Topo& topo, core::NodeId src, util::Ipv4Address dst,
                  std::span<const std::uint8_t> payload, std::uint32_t count,
                  int)
    -> decltype(topo.leaf_inject_train(src, dst, std::uint8_t{253}, payload,
                                       count, std::uint8_t{255})) {
    return topo.leaf_inject_train(src, dst, 253, payload, count, 255);
}

/// ...else the equivalent loop of single injects.
template <typename Topo>
std::uint32_t inject_train(Topo& topo, core::NodeId src, util::Ipv4Address dst,
                           std::span<const std::uint8_t> payload,
                           std::uint32_t count, long) {
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (topo.leaf_inject(src, dst, 253, payload, 255)) ++n;
    }
    return n;
}

/// CATENET_NO_FIBFLAT: pin the flat threshold past any table size...
template <typename Table>
auto disable_flat_fib(Table& table, int)
    -> decltype(table.set_flat_threshold(std::size_t{})) {
    return table.set_flat_threshold(std::numeric_limits<std::size_t>::max());
}

/// ...a no-op on a tree without the flattened FIB.
template <typename Table>
void disable_flat_fib(Table&, long) {}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);

    core::TwoTierParams params;
    params.gateways = opt.gateways;
    params.lans = opt.lans;
    params.hosts_per_lan = opt.hosts;
    params.seed = opt.seed;
    params.compact_hosts = true;
    params.install_routes = false;  // phased below, so each phase is timed
    // A fast, deep-queued core: the benchmark measures the simulator's
    // forwarding machinery, not a 10 Mb/s bottleneck's queueing.
    params.trunk.bits_per_second = 1'000'000'000;
    params.trunk.propagation_delay = sim::microseconds(50);
    params.trunk.queue_capacity_packets = 256;

    core::Internetwork net(opt.seed);
    const auto t_build = std::chrono::steady_clock::now();

    // Phase 1: the transit mesh (plan + gateways + trunks).
    const core::TwoTierPlan plan = core::plan_two_tier(params);
    std::vector<core::Gateway*> gateways;
    gateways.reserve(params.gateways);
    for (std::uint32_t i = 0; i < params.gateways; ++i) {
        gateways.push_back(&net.add_gateway("gw" + std::to_string(i)));
    }
    for (const auto& [a, b] : plan.trunks) {
        net.connect(*gateways[a], *gateways[b], params.trunk);
    }

    // Phase 2: the leaf population, bracketed by heap snapshots. The
    // reservation happens *inside* the bracket: the node arrays' capacity
    // is per-host cost and must be charged to the hosts, not the mesh.
    const std::size_t heap_before_hosts = heap_bytes();
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
    const std::size_t heap_after_hosts = heap_bytes();

    // Phase 3: oracle routes, one bulk load per gateway.
    const auto t_routes = std::chrono::steady_clock::now();
    net.use_static_routes();
    const double route_seconds = seconds_since(t_routes);
    const double build_seconds = seconds_since(t_build);

    const bool no_fibflat = std::getenv("CATENET_NO_FIBFLAT") != nullptr;
    if (no_fibflat) {
        for (core::Gateway* gw : gateways) {
            disable_flat_fib(gw->ip().routing_table(), 0);
        }
    }

    // Phase 3.5: raw LPM rate on one transit gateway's full table. One
    // probe per destination, destinations striped across every leaf LAN,
    // so consecutive probes land in different /24s — each lookup is the
    // cold path the flattened FIB exists for. The first pass is untimed
    // warmup (it also absorbs the lazy flat build).
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
    const double lpm_seconds = seconds_since(t_lpm);
    const std::uint64_t lpm_lookups = std::uint64_t{lpm_reps} * probe_dsts.size();
    const double lpm_lookups_per_second =
        lpm_seconds > 0 ? static_cast<double>(lpm_lookups) / lpm_seconds : 0.0;
    if (lookup_sink == 0) {
        std::fprintf(stderr, "bench_scale: every LPM probe missed\n");
    }

    const std::size_t total_hosts = std::size_t{params.lans} * params.hosts_per_lan;
    const std::size_t total_nodes = total_hosts + params.gateways;
    const double bytes_per_host =
        heap_after_hosts > heap_before_hosts && total_hosts > 0
            ? static_cast<double>(heap_after_hosts - heap_before_hosts) /
                  static_cast<double>(total_hosts)
            : 0.0;

    // Phase 4: steady-state forwarding soak. Each wave injects one train
    // per LAN (host i of LAN l toward host i of the LAN half the ring
    // away), then drains; paths spread across the whole mesh. The inject
    // and drain phases are timed separately so the JSON shows where the
    // soak's wall clock actually goes.
    const std::uint8_t payload[8] = {0xC5, 0, 0, 0, 0, 0, 0, 0};
    std::uint64_t injected = 0;
    std::uint64_t hops_before = 0;
    for (const core::Gateway* gw : gateways) {
        hops_before += gw->ip().stats().forwarded;
    }
    double inject_seconds = 0.0;
    double drain_seconds = 0.0;
    const auto t_soak = std::chrono::steady_clock::now();
    for (std::uint32_t round = 0; round < opt.rounds; ++round) {
        const std::uint32_t host_index = round % params.hosts_per_lan;
        const auto t_inject = std::chrono::steady_clock::now();
        for (std::uint32_t l = 0; l < params.lans; ++l) {
            const std::uint32_t dst_lan = (l + params.lans / 2) % params.lans;
            if (dst_lan == l) continue;
            const core::NodeId src = topo.leaf_host(leaf_lans[l], host_index);
            const core::NodeId dst = topo.leaf_host(leaf_lans[dst_lan], host_index);
            injected += inject_train(topo, src, topo.address(dst), payload,
                                     opt.train, 0);
        }
        inject_seconds += seconds_since(t_inject);
        const auto t_drain = std::chrono::steady_clock::now();
        net.run_for(sim::seconds(2));  // drain the wave completely
        drain_seconds += seconds_since(t_drain);
    }
    const double soak_seconds = seconds_since(t_soak);
    const std::uint64_t delivered = topo.leaf_delivered_total();
    std::uint64_t hops = 0;
    for (const core::Gateway* gw : gateways) {
        hops += gw->ip().stats().forwarded;
    }
    hops -= hops_before;
    const double pkts_per_second =
        soak_seconds > 0 ? static_cast<double>(delivered) / soak_seconds : 0.0;
    const double hops_per_second =
        soak_seconds > 0 ? static_cast<double>(hops) / soak_seconds : 0.0;

    const bool build_ok = build_seconds <= 5.0;
    const bool memory_ok = !CATENET_HAVE_MALLINFO2 || bytes_per_host <= 150.0;
    const bool pps_ok = opt.min_pps <= 0.0 || pkts_per_second >= opt.min_pps;

    std::printf("bench_scale: %zu nodes (%u gateways, %u LANs x %u hosts)%s\n",
                total_nodes, params.gateways, params.lans, params.hosts_per_lan,
                no_fibflat ? "  [CATENET_NO_FIBFLAT]" : "");
    std::printf("  build: %.3f s (routes %.3f s)  [budget 5 s: %s]\n", build_seconds,
                route_seconds, build_ok ? "ok" : "FAIL");
    std::printf("  marginal bytes/host: %.1f  [budget 150: %s]\n", bytes_per_host,
                CATENET_HAVE_MALLINFO2 ? (memory_ok ? "ok" : "FAIL") : "skipped");
    std::printf("  LPM: %.2f M lookups/s (%llu probes over %zu dsts, %zu routes)\n",
                lpm_lookups_per_second / 1e6,
                static_cast<unsigned long long>(lpm_lookups), probe_dsts.size(),
                lpm_table.size());
    std::printf("  soak: %llu injected (trains of %u), %llu delivered\n",
                static_cast<unsigned long long>(injected), opt.train,
                static_cast<unsigned long long>(delivered));
    std::printf("    %.0f pkts/s end-to-end, %.0f hops/s (%llu forwards)\n",
                pkts_per_second, hops_per_second,
                static_cast<unsigned long long>(hops));
    std::printf("    phases: inject %.3f s, drain %.3f s, total %.3f s\n",
                inject_seconds, drain_seconds, soak_seconds);
    if (opt.min_pps > 0.0) {
        std::printf("    floor %.0f pkts/s: %s\n", opt.min_pps,
                    pps_ok ? "ok" : "FAIL");
    }

    if (FILE* f = std::fopen(opt.out.c_str(), "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"benchmark\": \"bench_scale\",\n"
                     "  \"gateways\": %u,\n"
                     "  \"lans\": %u,\n"
                     "  \"hosts_per_lan\": %u,\n"
                     "  \"total_nodes\": %zu,\n"
                     "  \"seed\": %llu,\n"
                     "  \"no_fibflat\": %s,\n"
                     "  \"build_seconds\": %.6f,\n"
                     "  \"route_seconds\": %.6f,\n"
                     "  \"bytes_per_host\": %.2f,\n"
                     "  \"mallinfo2_available\": %s,\n"
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
                     "  \"min_pps\": %.0f,\n"
                     "  \"gate_build_le_5s\": %s,\n"
                     "  \"gate_bytes_per_host_le_150\": %s,\n"
                     "  \"gate_min_pps\": %s\n"
                     "}\n",
                     params.gateways, params.lans, params.hosts_per_lan, total_nodes,
                     static_cast<unsigned long long>(opt.seed),
                     no_fibflat ? "true" : "false", build_seconds,
                     route_seconds, bytes_per_host,
                     CATENET_HAVE_MALLINFO2 ? "true" : "false", opt.rounds,
                     opt.train, static_cast<unsigned long long>(injected),
                     static_cast<unsigned long long>(delivered),
                     static_cast<unsigned long long>(lpm_lookups), lpm_seconds,
                     lpm_lookups_per_second, lpm_table.size(), soak_seconds,
                     inject_seconds, drain_seconds, pkts_per_second,
                     static_cast<unsigned long long>(hops), hops_per_second,
                     opt.min_pps, build_ok ? "true" : "false",
                     memory_ok ? "true" : "false", pps_ok ? "true" : "false");
        std::fclose(f);
    } else {
        std::fprintf(stderr, "bench_scale: cannot write %s\n", opt.out.c_str());
        return 3;
    }

    if (opt.gate && (!build_ok || !memory_ok || !pps_ok)) return 1;
    return 0;
}
