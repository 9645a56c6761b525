// Deterministic two-tier AS-like topology generator: a K-gateway transit
// mesh (ring plus seeded chords — every gateway reachable, average degree
// tunable) with N stub LANs of H hosts each homed onto seeded gateways.
// This is the Internet's actual large-scale shape in miniature — a small
// richly-connected core and a vast single-homed edge — and the population
// that makes the paper's scaling claim testable: the same generator
// parameters always produce byte-identical topologies (same addresses,
// same adjacency, same shard assignment), so million-node runs replay and
// A/B like the hand-wired ten-node ones.
//
// Two host realizations:
//  - compact (default): hosts are leaf entries in the TopologyStore's
//    arrays — no Host objects, one shared default-route record and one
//    counter block per LAN. The memory/bytes-per-node regime bench_scale
//    measures.
//  - materialized: real Host objects on real link::Lan segments, full
//    transports. The regime the determinism suite drives end to end.
//
// When the Internetwork is bound to a ParallelSimulator, the generator
// partitions the gateway mesh with partition_topology (LANs follow their
// home gateway), so a generated internet shards without any manual
// placement.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/internetwork.h"
#include "link/lan.h"
#include "link/point_to_point.h"

namespace catenet::core {

struct TwoTierParams {
    std::uint32_t gateways = 8;        ///< K, the transit mesh
    std::uint32_t lans = 16;           ///< N stub LANs
    std::uint32_t hosts_per_lan = 61;  ///< H, <= 253 (one /24 per LAN)
    /// Seeded chords added on top of the ring; 0 means gateways/2.
    std::uint32_t extra_chords = 0;
    /// Drives chord selection and LAN homing only — node RNG forks still
    /// come from the Internetwork's own seed, so topology shape and
    /// channel randomness are independently reproducible.
    std::uint64_t seed = 1;
    bool compact_hosts = true;
    /// Install oracle static routes (bulk-loaded) after building.
    bool install_routes = true;
    link::LinkParams trunk;   ///< gateway<->gateway links
    link::LanParams access;   ///< materialized-mode LAN segments
};

/// The pure plan: gateway-level edges and LAN homing, derived from the
/// params alone (no Internetwork needed). Exposed so tests can check
/// determinism and partitioning without materializing anything.
struct TwoTierPlan {
    std::uint32_t gateways = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> trunks;
    std::vector<std::uint32_t> lan_home;  ///< per LAN: home gateway index
    /// Shard per gateway when planned for `shards` engines (all zero for 1).
    std::vector<std::uint32_t> gateway_shard;

    /// The plan as the partitioner's input (gateway graph only).
    EdgeTable edge_table(const link::LinkParams& trunk) const;
};

/// Derives the deterministic plan; `shards` > 1 also partitions the mesh.
/// Throws std::invalid_argument naming the field when gateways is 0 or
/// above 65,536, lans is above 65,536 (the /24s a /8 holds), or
/// hosts_per_lan is above 253.
TwoTierPlan plan_two_tier(const TwoTierParams& params, std::size_t shards = 1);

/// What generate_two_tier built, for driving traffic and assertions.
struct TwoTierTopology {
    TwoTierPlan plan;
    std::vector<Gateway*> gateways;
    std::vector<std::uint32_t> leaf_lans;  ///< compact mode: leaf-LAN indices
    std::vector<std::size_t> lan_indices;  ///< materialized mode: LAN indices
    std::vector<Host*> hosts;              ///< materialized mode, LAN-major order
};

/// Builds the planned topology into `net` (which supplies seed, engine and
/// shard layout) and optionally installs routes. Construction order is a
/// pure function of the params, so two builds from equal params are
/// byte-identical in the TopologyStore (same signature()).
TwoTierTopology generate_two_tier(Internetwork& net, const TwoTierParams& params);

}  // namespace catenet::core
