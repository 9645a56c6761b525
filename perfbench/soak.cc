// soak / soak_sharded: the 103,424-node two-tier internet of bench_scale
// (1024 gateways on 1 Gb/s, 50 us trunks with 256-packet queues; 512
// compact stub LANs of 200 hosts), driven by leaf-to-leaf datagram waves.
// Each wave injects one 16-datagram train of 8-byte payloads per LAN
// toward the LAN half the ring away, from the next host index, then
// drains. No transport runs: IP forwarding, the links and the event
// engine do the work. soak_sharded builds the same internet on a
// two-shard ParallelSimulator (one thread per shard); the planner
// partitions the mesh, and the digest must equal the sequential one.
//
// The internet is always bench_scale's (topology seed 7): a different
// mesh partitions differently, which moved the sharded rate by 30%
// between seeds. The run's seed picks the traffic instead — the first
// host index — and seeds the Internetwork.
#include <array>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/topology_gen.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace catenet;

constexpr std::uint32_t kTrain = 16;
constexpr std::uint8_t kProtocol = 253;  // RFC 3692 experimental: no transport
constexpr std::uint8_t kTtl = 255;
constexpr std::array<std::uint8_t, 8> kPayload = {0xC5, 0, 0, 0, 0, 0, 0, 0};
/// A wave is sampled every 100 us for its first millisecond (where the
/// traffic is), then run out to 2 s, which drains it completely.
constexpr sim::Time kCheckpointStep = sim::microseconds(100);
constexpr int kCheckpoints = 10;
constexpr sim::Time kWaveLength = sim::seconds(2);
constexpr std::uint64_t kTopologySeed = 7;

core::TwoTierParams soak_params(const Options& opt) {
    core::TwoTierParams p;
    p.gateways = opt.tiny ? 16 : 1024;
    p.lans = opt.tiny ? 8 : 512;
    p.hosts_per_lan = opt.tiny ? 10 : 200;
    p.seed = kTopologySeed;
    p.compact_hosts = true;
    p.install_routes = false;  // timed as its own phase below
    p.trunk.bits_per_second = 1'000'000'000;
    p.trunk.propagation_delay = sim::microseconds(50);
    p.trunk.queue_capacity_packets = 256;
    return p;
}

class Soak final : public Workload {
public:
    Soak(const Options& opt, bool sharded)
        : Workload(opt.seed, sharded ? 2 : 1),
          params_(soak_params(opt)),
          first_host_(static_cast<std::uint32_t>(opt.seed % params_.hosts_per_lan)) {
        core::Internetwork& n = net();
        const std::int64_t t_build = wall_ns();
        {
            // generate_two_tier's construction order, one phase at a time,
            // so the leaf population can be bracketed on its own.
            Span span(SpanName::CoreBuild);
            plan_ = core::plan_two_tier(params_, shards());
            gateways_.reserve(params_.gateways);
            for (std::uint32_t i = 0; i < params_.gateways; ++i) {
                gateways_.push_back(
                    &n.add_gateway("gw" + std::to_string(i), plan_.gateway_shard[i]));
            }
            for (const auto& [a, b] : plan_.trunks) {
                n.connect(*gateways_[a], *gateways_[b], params_.trunk);
            }
            const std::size_t hosts = std::size_t{params_.lans} * params_.hosts_per_lan;
            const std::size_t heap_before = heap_bytes();
            n.topology().reserve_nodes(params_.gateways + hosts, hosts);
            leaf_lans_.reserve(params_.lans);
            for (std::uint32_t l = 0; l < params_.lans; ++l) {
                leaf_lans_.push_back(n.add_leaf_lan(*gateways_[plan_.lan_home[l]],
                                                    params_.hosts_per_lan,
                                                    "leaf" + std::to_string(l)));
            }
            const std::size_t heap_after = heap_bytes();
            bytes_per_host_ = heap_after > heap_before
                                  ? static_cast<double>(heap_after - heap_before) /
                                        static_cast<double>(hosts)
                                  : 0.0;
        }
        const std::int64_t t_routes = wall_ns();
        {
            Span span(SpanName::RoutingStatic);
            n.use_static_routes();
        }
        build_s_ = seconds_between(t_build, t_routes);
        routes_s_ = seconds_between(t_routes, wall_ns());
        if (opt.tiny) matches_generator_ = same_as_generator(opt.seed);
    }

    const char* op_unit() const override { return "datagram"; }
    const char* rate_name() const override { return "pkts_per_s"; }
    const char* rate_unit() const override { return "datagrams/s"; }

    void run_unit() override {
        core::TopologyStore& topo = net().topology();
        const std::uint32_t host = (first_host_ + wave_) % params_.hosts_per_lan;
        const std::uint32_t lans = params_.lans;
        for (std::uint32_t l = 0; l < lans; ++l) {
            const std::uint32_t dst_lan = (l + lans / 2) % lans;
            if (dst_lan == l) continue;
            const core::NodeId src = topo.leaf_host(leaf_lans_[l], host);
            const core::NodeId dst = topo.leaf_host(leaf_lans_[dst_lan], host);
            Span span(SpanName::CoreInject);
            injected_ += topo.leaf_inject_train(src, topo.address(dst), kProtocol,
                                                kPayload, kTrain, kTtl);
        }
        for (int i = 0; i < kCheckpoints; ++i) advance(kCheckpointStep);
        advance(kWaveLength - kCheckpointStep * kCheckpoints);
        delivered_ = topo.leaf_delivered_total();
        ++wave_;
    }

    double ops() const override { return static_cast<double>(delivered_); }

    Tally tally() const override {
        return Tally{injected_, injected_ > delivered_ ? injected_ - delivered_ : 0};
    }

    void check(std::vector<std::string>& failures) const override {
        if (delivered_ > injected_) {
            failures.push_back("more datagrams delivered than injected");
        }
        if (!matches_generator_) {
            failures.push_back("phased build differs from core::generate_two_tier");
        }
    }

    void digest_fields(DigestFields& out) const override {
        out.emplace_back("waves", std::to_string(wave_));
        out.emplace_back("injected", std::to_string(injected_));
        out.emplace_back("delivered", std::to_string(delivered_));
    }

    FibProbe fib_probe() const override {
        const core::TopologyStore& topo = net().topology();
        FibProbe probe;
        probe.table = &gateways_[params_.gateways / 2]->ip().routing_table();
        for (std::uint32_t l = 0; l < params_.lans; ++l) {
            probe.destinations.push_back(
                topo.address(topo.leaf_host(leaf_lans_[l], l % params_.hosts_per_lan)));
        }
        return probe;
    }

    /// Cuts the busiest same-shard trunk so far; static routes keep
    /// sending into it, so the following waves lose datagrams.
    void break_input() override {
        core::Internetwork& n = net();
        std::size_t busiest = n.link_count();
        std::uint64_t most = 0;
        for (std::size_t i = 0; i < n.link_count(); ++i) {
            const std::uint64_t sent = n.link(i).port_a().stats().packets_sent +
                                       n.link(i).port_b().stats().packets_sent;
            if (sent > most) {
                most = sent;
                busiest = i;
            }
        }
        if (busiest == n.link_count()) throw std::logic_error("no loaded trunk to cut");
        n.fail_link(busiest);
    }

private:
    /// True when core::generate_two_tier builds a byte-identical store
    /// from the same parameters (checked at self-test size only).
    bool same_as_generator(std::uint64_t seed) {
        std::unique_ptr<sim::ParallelSimulator> psim;
        std::unique_ptr<core::Internetwork> twin;
        if (shards() > 1) {
            psim = std::make_unique<sim::ParallelSimulator>(shards(), 1);
            twin = std::make_unique<core::Internetwork>(seed, *psim);
        } else {
            twin = std::make_unique<core::Internetwork>(seed);
        }
        core::generate_two_tier(*twin, params_);
        return twin->topology().signature() == net().topology().signature();
    }

    core::TwoTierParams params_;
    core::TwoTierPlan plan_;
    std::vector<core::Gateway*> gateways_;
    std::vector<std::uint32_t> leaf_lans_;
    std::uint32_t first_host_;
    std::uint32_t wave_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    bool matches_generator_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_soak(const Options& opt, bool sharded) {
    return std::make_unique<Soak>(opt, sharded);
}

}  // namespace perfbench
