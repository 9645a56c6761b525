#include "core/internetwork.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace catenet::core {

Internetwork::Internetwork(std::uint64_t seed) : rng_(seed) {}

Internetwork::Internetwork(std::uint64_t seed, sim::ParallelSimulator& psim)
    : psim_(&psim), rng_(seed) {}

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

    const std::uint32_t shard_a = psim_ != nullptr ? shard_of(a) : 0;
    const std::uint32_t shard_b = psim_ != nullptr ? shard_of(b) : 0;

    std::size_t index;
    std::size_t if_a, if_b;
    if (shard_a == shard_b) {
        auto link = std::make_unique<link::PointToPointLink>(
            shard_sim(shard_a), rng_, params, a.name() + "-" + b.name());
        if_a = a.ip().add_interface(link->port_a(), addr_a, subnet);
        if_b = b.ip().add_interface(link->port_b(), addr_b, subnet);
        telemetry::LinkEntry entry;
        entry.name = a.name() + "-" + b.name();
        entry.if_a = &link->port_a().stats();
        entry.if_b = &link->port_b().stats();
        entry.queue_a = [l = link.get()] { return &l->queue_a().stats(); };
        entry.queue_b = [l = link.get()] { return &l->queue_b().stats(); };
        entry.chan_a_to_b = &link->stats_a_to_b();
        entry.chan_b_to_a = &link->stats_b_to_a();
        registry_.register_link(std::move(entry));
        links_.push_back(std::move(link));
        link_shard_.push_back(shard_a);
        index = links_.size() - 1;
    } else {
        // The ends live in different shards: the wire becomes the
        // synchronization surface. Both directions register with the
        // parallel driver here, in construction order, which fixes the
        // deterministic cross-channel tie-break ranks.
        auto link = std::make_unique<link::BoundaryLink>(
            shard_sim(shard_a), shard_a, shard_sim(shard_b), shard_b, rng_, params,
            a.name() + "-" + b.name());
        psim_->register_channel(&link->channel_a_to_b());
        psim_->register_channel(&link->channel_b_to_a());
        if_a = a.ip().add_interface(link->port_a(), addr_a, subnet);
        if_b = b.ip().add_interface(link->port_b(), addr_b, subnet);
        telemetry::LinkEntry entry;
        entry.name = a.name() + "-" + b.name();
        entry.boundary = true;
        entry.if_a = &link->port_a().stats();
        entry.if_b = &link->port_b().stats();
        entry.queue_a = [l = link.get()] { return &l->queue_a().stats(); };
        entry.queue_b = [l = link.get()] { return &l->queue_b().stats(); };
        entry.chan_a_to_b = &link->stats_a_to_b();
        entry.chan_b_to_a = &link->stats_b_to_a();
        registry_.register_link(std::move(entry));
        boundary_links_.push_back(std::move(link));
        index = kBoundaryIndexBase + boundary_links_.size() - 1;
    }

    TopologyStore::LinkRow row;
    row.a = a.id();
    row.b = b.id();
    row.ifindex_a = static_cast<std::uint32_t>(if_a);
    row.ifindex_b = static_cast<std::uint32_t>(if_b);
    row.addr_a = addr_a;
    row.addr_b = addr_b;
    row.subnet = subnet;
    // The same formula BoundaryLink uses for its channel lookahead:
    // propagation plus clocking one byte.
    row.lookahead_ns =
        params.propagation_delay.nanos() + params.transmission_time(1).nanos();
    store_.add_link(row);
    return index;
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
    const std::size_t n = store_.node_count();
    std::vector<std::uint32_t> dist(n, kInf);
    std::vector<const Incidence*> first_hop(n, nullptr);
    std::vector<NodeId> frontier;
    std::vector<ip::Route> batch;
    TopologyStore::Attachment scratch[2];

    for (Node* origin_node : node_ptrs_) {
        const NodeId origin = origin_node->id();
        // BFS recording, for each reached node, the first edge taken from
        // `origin` on a shortest path. Neighbor order is chronological
        // (edge/attach creation order) — the deterministic tie-break.
        frontier.clear();
        frontier.push_back(origin);
        dist[origin] = 0;
        for (std::size_t head = 0; head < frontier.size(); ++head) {
            const NodeId current = frontier[head];
            for (const Incidence& edge : store_.neighbors(current)) {
                if (dist[edge.peer] != kInf) continue;
                dist[edge.peer] = dist[current] + 1;
                first_hop[edge.peer] =
                    current == origin ? &edge : first_hop[current];
                frontier.push_back(edge.peer);
            }
        }

        batch.clear();
        for (const TopologyStore::SubnetRef& ref : store_.subnets()) {
            const auto attached = store_.subnet_attachments(ref, scratch);
            // Skip subnets this node touches (connected route suffices).
            bool connected = false;
            for (const TopologyStore::Attachment& att : attached) {
                if (att.node == origin) connected = true;
            }
            if (connected) continue;

            // Nearest attached node (first wins ties, in attach order).
            NodeId best = kNoNode;
            std::uint32_t best_dist = kInf;
            for (const TopologyStore::Attachment& att : attached) {
                if (dist[att.node] < best_dist) {
                    best = att.node;
                    best_dist = dist[att.node];
                }
            }
            if (best == kNoNode) continue;  // unreachable

            const Incidence* hop = first_hop[best];
            ip::Route route;
            route.prefix = store_.subnet_prefix(ref);
            route.next_hop = hop->peer_addr;
            route.ifindex = hop->ifindex;
            route.metric = best_dist;
            route.origin = "static";
            batch.push_back(route);
        }
        origin_node->ip().routing_table().bulk_load(batch);

        // Undo only what the BFS touched: resetting the full arrays per
        // origin would be O(nodes²) across a large build.
        for (const NodeId id : frontier) {
            dist[id] = kInf;
            first_hop[id] = nullptr;
        }
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
        route.origin = "static";
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
    for (const auto& link : boundary_links_) {
        total += link->total_bytes_sent();
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
            add_link_gauges(links_[i].get(), link_shard_[i], link_shard_[i]);
        }
        for (const auto& l : boundary_links_) {
            add_link_gauges(l.get(), l->channel_a_to_b().source_shard(),
                            l->channel_b_to_a().source_shard());
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
