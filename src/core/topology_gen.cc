#include "core/topology_gen.h"

#include <stdexcept>
#include <string>
#include <unordered_set>

namespace catenet::core {

namespace {

/// SplitMix64: the generator's own draw sequence. Deliberately not
/// util::Rng — the topology's *shape* must be a pure function of
/// TwoTierParams::seed, never entangled with the simulation RNG's fork
/// order.
struct SplitMix {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t bound) {
        return static_cast<std::uint32_t>(next() % bound);
    }
};

std::int64_t trunk_lookahead(const link::LinkParams& trunk) {
    return trunk.propagation_delay.nanos() + trunk.transmission_time(1).nanos();
}

}  // namespace

EdgeTable TwoTierPlan::edge_table(const link::LinkParams& trunk) const {
    EdgeTable table;
    table.node_count = gateways;
    const std::int64_t lookahead = trunk_lookahead(trunk);
    for (const auto& [a, b] : trunks) {
        table.edges.push_back(PartitionEdge{a, b, lookahead, /*cuttable=*/true});
    }
    return table;
}

TwoTierPlan plan_two_tier(const TwoTierParams& params, std::size_t shards) {
    if (params.gateways == 0) throw std::invalid_argument("two_tier: zero gateways");
    if (params.hosts_per_lan > 253) {
        throw std::invalid_argument("two_tier: hosts_per_lan > 253 (one /24 per LAN)");
    }
    // Trunks are numbered from 10/8 and leaf LANs from 11/8, one /24 each:
    // neither plan holds more than 65,536, and the mesh has a trunk per
    // gateway. Checked before anything is sized from these counts.
    constexpr std::uint32_t kSlash24sPerSlash8 = 65536;
    if (params.gateways > kSlash24sPerSlash8) {
        throw std::invalid_argument("two_tier: gateways " + std::to_string(params.gateways) +
                                    " > 65536 (one 10/8 /24 per trunk)");
    }
    if (params.lans > kSlash24sPerSlash8) {
        throw std::invalid_argument("two_tier: lans " + std::to_string(params.lans) +
                                    " > 65536 (one /24 per LAN)");
    }
    TwoTierPlan plan;
    plan.gateways = params.gateways;
    SplitMix rng{params.seed};

    // Tier 1: a ring (connectivity guaranteed) plus seeded chords (short
    // diameter). Chord draws that duplicate an existing edge or land on
    // self are skipped, not redrawn — keeps the draw count fixed.
    const std::uint32_t k = params.gateways;
    std::unordered_set<std::uint64_t> have;
    auto edge_key = [](std::uint32_t a, std::uint32_t b) {
        if (b < a) std::swap(a, b);
        return (std::uint64_t{a} << 32) | b;
    };
    if (k > 1) {
        for (std::uint32_t i = 0; i < (k == 2 ? 1u : k); ++i) {
            const std::uint32_t j = (i + 1) % k;
            plan.trunks.emplace_back(i, j);
            have.insert(edge_key(i, j));
        }
    }
    const std::uint32_t chords =
        params.extra_chords != 0 ? params.extra_chords : k / 2;
    for (std::uint32_t c = 0; c < chords && k > 3; ++c) {
        const std::uint32_t a = rng.below(k);
        const std::uint32_t b = rng.below(k);
        if (a == b || have.contains(edge_key(a, b))) continue;
        plan.trunks.emplace_back(a, b);
        have.insert(edge_key(a, b));
    }

    // Tier 2: each stub LAN homes onto a seeded gateway.
    plan.lan_home.reserve(params.lans);
    for (std::uint32_t l = 0; l < params.lans; ++l) {
        plan.lan_home.push_back(rng.below(k));
    }

    // Shard the mesh; every LAN (and so every host) follows its home
    // gateway — the stub edge is zero-lookahead, exactly the edge the
    // partitioner must never cut.
    if (shards > 1) {
        plan.gateway_shard = partition_topology(plan.edge_table(params.trunk), shards);
    } else {
        plan.gateway_shard.assign(k, 0);
    }
    return plan;
}

TwoTierTopology generate_two_tier(Internetwork& net, const TwoTierParams& params) {
    const std::size_t shards =
        net.parallel() != nullptr ? net.parallel()->shard_count() : 1;
    TwoTierTopology out;
    out.plan = plan_two_tier(params, shards);
    const TwoTierPlan& plan = out.plan;

    const std::size_t leaf_hosts =
        params.compact_hosts
            ? std::size_t{params.lans} * params.hosts_per_lan
            : 0;
    net.topology().reserve_nodes(
        params.gateways + std::size_t{params.lans} * params.hosts_per_lan,
        leaf_hosts);

    out.gateways.reserve(params.gateways);
    for (std::uint32_t i = 0; i < params.gateways; ++i) {
        out.gateways.push_back(
            &net.add_gateway("gw" + std::to_string(i), plan.gateway_shard[i]));
    }
    for (const auto& [a, b] : plan.trunks) {
        net.connect(*out.gateways[a], *out.gateways[b], params.trunk);
    }

    for (std::uint32_t l = 0; l < params.lans; ++l) {
        Gateway& home = *out.gateways[plan.lan_home[l]];
        if (params.compact_hosts) {
            out.leaf_lans.push_back(
                net.add_leaf_lan(home, params.hosts_per_lan, "leaf" + std::to_string(l)));
        } else {
            const std::size_t lan = net.add_lan(
                params.access, "lan" + std::to_string(l), plan.gateway_shard[plan.lan_home[l]]);
            out.lan_indices.push_back(lan);
            net.attach_to_lan(home, lan);
            for (std::uint32_t h = 0; h < params.hosts_per_lan; ++h) {
                Host& host = net.add_host(
                    "h" + std::to_string(l) + "_" + std::to_string(h),
                    plan.gateway_shard[plan.lan_home[l]]);
                net.attach_to_lan(host, lan);
                out.hosts.push_back(&host);
            }
        }
    }

    if (params.install_routes) {
        net.use_static_routes();
        if (!params.compact_hosts) net.install_host_default_routes();
    }
    return out;
}

}  // namespace catenet::core
