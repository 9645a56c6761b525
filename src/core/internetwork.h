// The Internetwork builder: constructs a "realization" of the
// architecture in the paper's sense — a concrete set of hosts, gateways
// and heterogeneous networks wired together — assigns addressing,
// installs routing (oracle static routes or the real protocols), and
// injects failures. Every experiment and example builds its topology
// through this class.
//
// The builder's graph lives in a TopologyStore (core/topology_store.h):
// nodes are dense ids into parallel arrays, adjacency is chronological
// incidence lists frozen to CSR spans for the routing passes, and LAN /
// subnet metadata are flat vectors — no pointer-keyed maps anywhere on
// the build or route-computation paths. Host/Gateway objects are still
// owned here for the object-level API; million-node populations use
// add_leaf_lan, which creates *compact* hosts that exist only in the
// store's arrays.
//
// A builder bound to a sim::ParallelSimulator places each node in a shard
// (the `shard` argument on add_host/add_gateway/add_lan). connect() builds
// the same link::PointToPointLink either way; when its ends live in
// different shards the link is cut, and its latency becomes the
// conservative engine's lookahead. Links have one dense index space, so
// failure injection, metrics and gauges reach every link alike.
// Addressing, adjacency and static routing are oblivious to the
// partition, which is the paper's fate-sharing argument doing real work:
// nothing in the network layer knows or cares where the shard boundary
// falls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/topology_store.h"
#include "link/lan.h"
#include "link/point_to_point.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"
#include "telemetry/report.h"
#include "util/random.h"

namespace catenet::core {

class Internetwork {
public:
    explicit Internetwork(std::uint64_t seed);

    /// A builder whose nodes live in `psim`'s shards. `psim` must outlive
    /// the Internetwork. Node/link construction order must be identical
    /// across runs (it is the RNG fork order and the channel id order).
    Internetwork(std::uint64_t seed, sim::ParallelSimulator& psim);

    Internetwork(const Internetwork&) = delete;
    Internetwork& operator=(const Internetwork&) = delete;

    /// The (only) simulator in sequential mode; shard 0's in parallel mode.
    sim::Simulator& sim() noexcept { return shard_sim(0); }
    /// The simulator a given shard's nodes schedule on.
    sim::Simulator& shard_sim(std::uint32_t shard) noexcept {
        return psim_ != nullptr ? psim_->shard(shard) : sim_;
    }
    sim::ParallelSimulator* parallel() noexcept { return psim_; }
    util::Rng& rng() noexcept { return rng_; }

    // --- topology ------------------------------------------------------
    Host& add_host(const std::string& name, std::uint32_t shard = 0);
    Gateway& add_gateway(const std::string& name, std::uint32_t shard = 0);

    /// Connects two nodes with a link; allocates a /24 and binds .1 (a's
    /// side) and .2 (b's side). Returns the link's index. Nodes in
    /// different shards get a cut link, whose outboxes register with the
    /// ParallelSimulator here, in construction order.
    std::size_t connect(Node& a, Node& b, const link::LinkParams& params);

    /// Creates a shared LAN segment; returns its index. All attachees must
    /// live in `shard` — a LAN's contention model is a single shared state.
    std::size_t add_lan(const link::LanParams& params, const std::string& name = "lan",
                        std::uint32_t shard = 0);

    /// Attaches a node to a LAN; returns the address it was given.
    util::Ipv4Address attach_to_lan(Node& node, std::size_t lan_index);

    /// Creates a stub LAN of `hosts` *compact* leaf hosts homed on
    /// `gateway` (no Host objects: the hosts exist only in the topology
    /// store's arrays and share one default-route record and one telemetry
    /// counter block). Allocates an 11.x.y.0/24 subnet — disjoint from the
    /// 10.x space links and materialized LANs use — and registers the
    /// shared counters with the metrics registry. Returns the leaf-LAN
    /// index; address/inject/delivery queries go through topology().
    std::uint32_t add_leaf_lan(Gateway& gateway, std::uint32_t hosts,
                               const std::string& name = "leaf");

    std::uint32_t shard_of(const Node& node) const {
        return store_.shard(node.id());
    }

    /// The struct-of-arrays topology under this builder: node kinds /
    /// shards / addresses, CSR adjacency, the flat edge table the
    /// partitioner consumes, and the leaf-host population.
    TopologyStore& topology() noexcept { return store_; }
    const TopologyStore& topology() const noexcept { return store_; }

    // --- routing --------------------------------------------------------
    /// Installs oracle shortest-path static routes everywhere (topology
    /// known to the operator; does not adapt to failures). One bulk load
    /// per node: the per-route cost is a sort key, not a table rebuild.
    void use_static_routes();

    /// Gives every host a default route via an adjacent gateway (or any
    /// neighbor if no gateway is adjacent).
    void install_host_default_routes();

    /// Starts distance-vector routing on every gateway and gives hosts
    /// default routes: the self-managing configuration (goals 1 and 4).
    void enable_dynamic_routing(const routing::DvConfig& config = {});

    // --- failure injection ------------------------------------------------
    /// In a sharded run, call these between run_for calls (a cut link's
    /// state is read by both shards while they run).
    void fail_link(std::size_t link_index) { links_.at(link_index)->set_up(false); }
    void restore_link(std::size_t link_index) { links_.at(link_index)->set_up(true); }

    // --- access & metrics ----------------------------------------------
    link::PointToPointLink& link(std::size_t i) { return *links_.at(i); }
    link::Lan& lan(std::size_t i) { return *lans_.at(i); }
    std::size_t link_count() const noexcept { return links_.size(); }

    /// Materialized nodes only (leaf hosts have no objects), in
    /// construction order.
    const std::vector<Node*>& nodes() const noexcept { return node_ptrs_; }

    /// Total bytes clocked onto all wires — the "byte-hops" cost metric
    /// for the E5 experiments.
    std::uint64_t total_link_bytes() const;

    // --- telemetry -----------------------------------------------------
    /// The metrics registry. The constructor registers each engine (one
    /// per shard), and nodes and links register themselves as the
    /// topology is built; read it through metrics_report().
    telemetry::Registry& metrics() noexcept { return registry_; }
    const telemetry::Registry& metrics() const noexcept { return registry_; }

    /// Attaches a binary flight recorder, the packet trace: one lane per
    /// node, in node construction order (the deterministic merge
    /// tie-break order). Call after the topology is built — nodes added
    /// later are not recorded. Idempotent; returns the recorder.
    telemetry::FlightRecorder& attach_flight_recorder(
        std::size_t lane_capacity = telemetry::FlightRecorder::kDefaultLaneCapacity);
    telemetry::FlightRecorder* flight_recorder() noexcept { return recorder_.get(); }

    /// Starts periodic gauge sampling: queue depth and utilization series
    /// for both ports of every point-to-point link, each sampled by a
    /// per-shard event on the engine of the shard that owns the port. Call
    /// after the topology is built.
    void enable_gauge_sampling(sim::Time period);

    /// Adds cwnd / flight-size / srtt gauge series for one TCP socket
    /// (sockets are dynamic, so they are watched explicitly). The series
    /// stop updating when the socket dies; they are never removed.
    void watch_tcp(Host& host, const std::shared_ptr<tcp::TcpSocket>& socket,
                   const std::string& label);

    /// Snapshot of every registered counter, link statistic and gauge.
    telemetry::MetricsReport metrics_report() const {
        return telemetry::MetricsReport::collect(registry_, now(), recorder_.get());
    }

    /// Runs the simulation for `duration` of simulated time (all shards,
    /// in parallel mode).
    void run_for(sim::Time duration);
    sim::Time now() const noexcept {
        return psim_ != nullptr ? psim_->now() : sim_.now();
    }

private:
    util::Ipv4Prefix allocate_subnet();
    util::Ipv4Prefix allocate_leaf_subnet();
    void check_shard(std::uint32_t shard) const;
    telemetry::GaugeSampler& sampler_for(std::uint32_t shard);

    sim::Simulator sim_;  ///< sequential mode's engine (idle when psim_ set)
    sim::ParallelSimulator* psim_ = nullptr;
    util::Rng rng_;
    TopologyStore store_;
    std::vector<std::unique_ptr<Host>> hosts_;
    std::vector<std::unique_ptr<Gateway>> gateways_;
    std::vector<Node*> node_ptrs_;
    std::vector<std::unique_ptr<link::PointToPointLink>> links_;  ///< by connect() index
    std::vector<std::unique_ptr<link::Lan>> lans_;
    std::uint32_t next_subnet_ = 1;       ///< 10.x point-to-point / LAN space
    std::uint32_t next_leaf_subnet_ = 0;  ///< 11.x leaf-LAN space
    telemetry::Registry registry_;
    std::unique_ptr<telemetry::FlightRecorder> recorder_;
    std::vector<std::unique_ptr<telemetry::GaugeSampler>> samplers_;  ///< by shard
    sim::Time gauge_period_;  ///< zero until sampling enabled
    bool link_gauges_registered_ = false;
};

}  // namespace catenet::core
