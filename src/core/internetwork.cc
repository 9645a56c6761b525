#include "core/internetwork.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

namespace catenet::core {

Internetwork::Internetwork(std::uint64_t seed) : rng_(seed) {
    registry_.register_engine(0, sim_);
}

Internetwork::Internetwork(std::uint64_t seed, sim::ParallelSimulator& psim)
    : psim_(&psim), rng_(seed) {
    for (std::uint32_t i = 0; i < psim.shard_count(); ++i) {
        registry_.register_engine(i, psim.shard(i));
    }
}

void Internetwork::check_shard(std::uint32_t shard) const {
    const std::size_t count = psim_ != nullptr ? psim_->shard_count() : 1;
    if (shard >= count) {
        throw std::out_of_range("Internetwork: shard " + std::to_string(shard) +
                                " out of range (have " + std::to_string(count) + ")");
    }
}

Host& Internetwork::add_host(const std::string& name, std::uint32_t shard) {
    check_shard(shard);
    hosts_.push_back(std::make_unique<Host>(shard_sim(shard), name, rng_));
    Host& host = *hosts_.back();
    node_ptrs_.push_back(&host);
    host.set_id(store_.add_node(NodeKind::Host, shard, &host));
    registry_.register_node(name, shard,
                            {&host.ip().counters(), &host.tcp().counters(),
                             &host.udp().counters()});
    return host;
}

Gateway& Internetwork::add_gateway(const std::string& name, std::uint32_t shard) {
    check_shard(shard);
    gateways_.push_back(std::make_unique<Gateway>(shard_sim(shard), name));
    Gateway& gw = *gateways_.back();
    node_ptrs_.push_back(&gw);
    gw.set_id(store_.add_node(NodeKind::Gateway, shard, &gw));
    registry_.register_node(name, shard, {&gw.ip().counters()});
    return gw;
}

util::Ipv4Prefix Internetwork::allocate_subnet() {
    const std::uint32_t n = next_subnet_++;
    if (n > 0xffff) throw std::runtime_error("subnet space exhausted");
    return util::Ipv4Prefix(
        util::Ipv4Address(10, static_cast<std::uint8_t>(n >> 8),
                          static_cast<std::uint8_t>(n & 0xff), 0),
        24);
}

util::Ipv4Prefix Internetwork::allocate_leaf_subnet() {
    const std::uint32_t n = next_leaf_subnet_++;
    if (n > 0xffff) throw std::runtime_error("leaf subnet space exhausted");
    return util::Ipv4Prefix(
        util::Ipv4Address(11, static_cast<std::uint8_t>(n >> 8),
                          static_cast<std::uint8_t>(n & 0xff), 0),
        24);
}

std::size_t Internetwork::connect(Node& a, Node& b, const link::LinkParams& params) {
    const auto subnet = allocate_subnet();
    const util::Ipv4Address addr_a(subnet.address().value() + 1);
    const util::Ipv4Address addr_b(subnet.address().value() + 2);

    const std::string name = a.name() + "-" + b.name();
    const std::uint32_t shard_a = shard_of(a);
    const std::uint32_t shard_b = shard_of(b);
    auto link = shard_a == shard_b
                    ? std::make_unique<link::PointToPointLink>(shard_sim(shard_a), rng_, params,
                                                               name)
                    : std::make_unique<link::PointToPointLink>(*psim_, shard_a, shard_b, rng_,
                                                               params, name);
    const std::size_t if_a = a.ip().add_interface(link->port_a(), addr_a, subnet);
    const std::size_t if_b = b.ip().add_interface(link->port_b(), addr_b, subnet);
    telemetry::LinkEntry entry;
    entry.name = name;
    entry.boundary = shard_a != shard_b;
    entry.if_a = &link->port_a().stats();
    entry.if_b = &link->port_b().stats();
    entry.queue_a = [l = link.get()] { return &l->queue_a().stats(); };
    entry.queue_b = [l = link.get()] { return &l->queue_b().stats(); };
    entry.chan_a_to_b = &link->stats_a_to_b();
    entry.chan_b_to_a = &link->stats_b_to_a();
    registry_.register_link(std::move(entry));
    links_.push_back(std::move(link));

    TopologyStore::LinkRow row;
    row.a = a.id();
    row.b = b.id();
    row.ifindex_a = static_cast<std::uint32_t>(if_a);
    row.ifindex_b = static_cast<std::uint32_t>(if_b);
    row.addr_a = addr_a;
    row.addr_b = addr_b;
    row.subnet = subnet;
    row.lookahead_ns = params.lookahead().nanos();
    store_.add_link(row);
    return links_.size() - 1;
}

std::size_t Internetwork::add_lan(const link::LanParams& params, const std::string& name,
                                  std::uint32_t shard) {
    check_shard(shard);
    lans_.push_back(std::make_unique<link::Lan>(shard_sim(shard), rng_, params, name));
    return store_.add_lan(allocate_subnet(), shard);
}

util::Ipv4Address Internetwork::attach_to_lan(Node& node, std::size_t lan_index) {
    auto& lan = *lans_.at(lan_index);
    TopologyStore::LanRow& row = store_.lan(static_cast<std::uint32_t>(lan_index));
    if (psim_ != nullptr && shard_of(node) != row.shard) {
        // A LAN's medium (contention, broadcast) is one shared state; it
        // cannot straddle shards. Cut at point-to-point links instead.
        throw std::logic_error("attach_to_lan: node " + node.name() +
                               " is in a different shard than the LAN");
    }
    const std::uint32_t host_octet = row.next_octet++;
    if (host_octet >= 255) throw std::runtime_error("LAN address space exhausted");
    const util::Ipv4Address addr(row.subnet.address().value() + host_octet);
    const std::size_t port_index = lan.port_count();
    auto& port = lan.add_port();
    const std::size_t ifindex = node.ip().add_interface(port, addr, row.subnet);
    lan.register_address(addr, port_index);
    store_.attach_to_lan(static_cast<std::uint32_t>(lan_index), node.id(),
                         static_cast<std::uint32_t>(ifindex), addr);
    return addr;
}

std::uint32_t Internetwork::add_leaf_lan(Gateway& gateway, std::uint32_t hosts,
                                         const std::string& name) {
    const std::uint32_t shard = shard_of(gateway);
    const std::uint32_t index = store_.add_leaf_lan(
        gateway.ip(), gateway.id(), allocate_leaf_subnet(), hosts,
        shard_sim(shard), name + "." + gateway.name());
    registry_.register_node(name + "." + gateway.name(), shard,
                            {&store_.leaf_counters(index)});
    return index;
}

void Internetwork::use_static_routes() {
    constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
    store_.build_csr();

    // Every origin routes to the same subnets, so each subnet's prefix and
    // attached nodes are gathered once, in the routing table's order: every
    // batch then arrives sorted, and bulk_load merges it without sorting.
    // Allocation order is not table order (a leaf LAN's 11/8 subnet can be
    // allocated before a trunk's 10/8 one). The sort is stable, so subnets
    // with one prefix would keep allocation order, and the later would
    // still win, as over one install() per subnet.
    struct Target {
        util::Ipv4Prefix prefix;
        std::uint32_t first = 0;  ///< attached nodes are attached[first, last)
        std::uint32_t last = 0;
    };
    std::vector<Target> targets;
    std::vector<NodeId> attached;
    targets.reserve(store_.subnets().size());
    TopologyStore::Attachment scratch[2];
    for (const TopologyStore::SubnetRef& ref : store_.subnets()) {
        Target target{store_.subnet_prefix(ref), static_cast<std::uint32_t>(attached.size())};
        for (const TopologyStore::Attachment& att : store_.subnet_attachments(ref, scratch)) {
            attached.push_back(att.node);
        }
        target.last = static_cast<std::uint32_t>(attached.size());
        targets.push_back(target);
    }
    std::stable_sort(targets.begin(), targets.end(), [](const Target& a, const Target& b) {
        return ip::RoutingTable::precedes(a.prefix, b.prefix);
    });

    const std::size_t n = store_.node_count();
    std::vector<std::uint32_t> dist(n, kInf);
    // For each reached node, the index in the origin's neighbors of the
    // first edge on a shortest path to it. Read only where dist is set.
    std::vector<std::uint32_t> first_hop(n);
    std::vector<NodeId> frontier;
    std::vector<ip::Route> batch;
    batch.reserve(targets.size());

    for (Node* origin_node : node_ptrs_) {
        const NodeId origin = origin_node->id();
        const std::span<const Incidence> out = store_.neighbors(origin);
        // BFS. Neighbor order is chronological (edge/attach creation
        // order) — the deterministic tie-break.
        frontier.clear();
        frontier.push_back(origin);
        dist[origin] = 0;
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const NodeId current = frontier[head];
            const std::span<const Incidence> edges = store_.neighbors(current);
            for (std::uint32_t e = 0; e < edges.size(); ++e) {
                const NodeId peer = edges[e].peer;
                if (dist[peer] != kInf) continue;
                dist[peer] = dist[current] + 1;
                first_hop[peer] = current == origin ? e : first_hop[current];
                frontier.push_back(peer);
            }
        }

        batch.clear();
        for (const Target& target : targets) {
            // Nearest attached node, the first winning ties. Distance 0 is
            // the origin itself: its connected route suffices.
            NodeId best = kNoNode;
            std::uint32_t best_dist = kInf;
            for (std::uint32_t i = target.first; i < target.last; ++i) {
                if (dist[attached[i]] < best_dist) {
                    best = attached[i];
                    best_dist = dist[attached[i]];
                }
            }
            if (best_dist == 0 || best == kNoNode) continue;  // connected or unreachable
            const Incidence& hop = out[first_hop[best]];
            batch.push_back(ip::Route{target.prefix, hop.peer_addr, hop.ifindex, best_dist,
                                      ip::RouteOrigin::Tag::Static});
        }
        origin_node->ip().routing_table().bulk_load(batch);

        // Undo only what the BFS touched: resetting the full array per
        // origin would be O(nodes²) across a large build.
        for (const NodeId id : frontier) dist[id] = kInf;
    }
}

void Internetwork::install_host_default_routes() {
    store_.build_csr();
    for (auto& host : hosts_) {
        const auto edges = store_.neighbors(host->id());
        if (edges.empty()) continue;
        // Prefer a gateway neighbor.
        const Incidence* chosen = &edges.front();
        for (const Incidence& edge : edges) {
            if (store_.kind(edge.peer) == NodeKind::Gateway) {
                chosen = &edge;
                break;
            }
        }
        ip::Route route;
        route.prefix = util::Ipv4Prefix(util::Ipv4Address(0), 0);
        route.next_hop = chosen->peer_addr;
        route.ifindex = chosen->ifindex;
        route.origin = ip::RouteOrigin::Tag::Static;
        host->ip().routing_table().install(route);
    }
}

void Internetwork::enable_dynamic_routing(const routing::DvConfig& config) {
    for (auto& gateway : gateways_) {
        gateway->enable_distance_vector(config);
    }
    install_host_default_routes();
}

std::uint64_t Internetwork::total_link_bytes() const {
    std::uint64_t total = 0;
    for (const auto& link : links_) {
        total += link->port_a().stats().bytes_sent + link->port_b().stats().bytes_sent;
    }
    for (const auto& lan : lans_) {
        total += lan->total_bytes_sent();
    }
    return total;
}

telemetry::FlightRecorder& Internetwork::attach_flight_recorder(
    std::size_t lane_capacity) {
    if (recorder_ != nullptr) return *recorder_;
    recorder_ = std::make_unique<telemetry::FlightRecorder>();
    for (Node* node : node_ptrs_) {
        const std::size_t lane = recorder_->add_lane(node->name(), lane_capacity);
        node->ip().set_recorder(&recorder_->lane(lane));
    }
    return *recorder_;
}

telemetry::GaugeSampler& Internetwork::sampler_for(std::uint32_t shard) {
    if (samplers_.size() <= shard) samplers_.resize(shard + 1);
    auto& slot = samplers_[shard];
    if (slot == nullptr) {
        slot = std::make_unique<telemetry::GaugeSampler>(shard_sim(shard));
    }
    if (gauge_period_ > sim::Time(0) && !slot->running()) {
        slot->start(gauge_period_);
    }
    return *slot;
}

void Internetwork::enable_gauge_sampling(sim::Time period) {
    gauge_period_ = period;
    if (!link_gauges_registered_) {
        link_gauges_registered_ = true;
        // Each port's series go to the sampler of the shard that owns the
        // port: reading a port from another shard's thread would race.
        auto add_link_gauges = [this](auto* l, std::uint32_t shard_a,
                                      std::uint32_t shard_b) {
            auto& qa = registry_.add_series(l->port_a().name() + ".qdepth");
            sampler_for(shard_a).add(&qa, [l]() -> std::optional<double> {
                return static_cast<double>(l->queue_a().packets());
            });
            auto& qb = registry_.add_series(l->port_b().name() + ".qdepth");
            sampler_for(shard_b).add(&qb, [l]() -> std::optional<double> {
                return static_cast<double>(l->queue_b().packets());
            });
            auto& ua = registry_.add_series(l->port_a().name() + ".util");
            sampler_for(shard_a).add(&ua, telemetry::make_utilization_probe(
                                              shard_sim(shard_a),
                                              [l] { return l->port_a().stats().busy_ns; }));
            auto& ub = registry_.add_series(l->port_b().name() + ".util");
            sampler_for(shard_b).add(&ub, telemetry::make_utilization_probe(
                                              shard_sim(shard_b),
                                              [l] { return l->port_b().stats().busy_ns; }));
        };
        for (std::size_t i = 0; i < links_.size(); ++i) {
            const TopologyStore::LinkRow& row = store_.links()[i];
            add_link_gauges(links_[i].get(), store_.shard(row.a), store_.shard(row.b));
        }
    }
    // Samplers created before this call (watch_tcp first) start here.
    for (auto& sampler : samplers_) {
        if (sampler != nullptr && !sampler->running()) sampler->start(period);
    }
}

void Internetwork::watch_tcp(Host& host, const std::shared_ptr<tcp::TcpSocket>& socket,
                             const std::string& label) {
    telemetry::GaugeSampler& sampler = sampler_for(psim_ != nullptr ? shard_of(host) : 0);
    auto probe = [](std::weak_ptr<tcp::TcpSocket> w, auto field) {
        return [w = std::move(w), field]() -> std::optional<double> {
            auto s = w.lock();
            if (s == nullptr) return std::nullopt;
            return field(s->stats());
        };
    };
    const std::weak_ptr<tcp::TcpSocket> weak = socket;
    sampler.add(&registry_.add_series(label + ".cwnd_bytes"),
                probe(weak, [](const tcp::TcpSocketStats& st) {
                    return static_cast<double>(st.cwnd_bytes);
                }));
    sampler.add(&registry_.add_series(label + ".flight_bytes"),
                probe(weak, [](const tcp::TcpSocketStats& st) {
                    return static_cast<double>(st.flight_bytes);
                }));
    sampler.add(&registry_.add_series(label + ".srtt_ms"),
                probe(weak, [](const tcp::TcpSocketStats& st) { return st.srtt_ms; }));
}

void Internetwork::run_for(sim::Time duration) {
    if (psim_ != nullptr) {
        psim_->run_until(psim_->now() + duration);
    } else {
        sim_.run_until(sim_.now() + duration);
    }
}

}  // namespace catenet::core
