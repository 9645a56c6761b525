#include "core/topology_store.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "ip/ip_stack.h"

namespace catenet::core {

namespace {

/// Union-find over node indices (path halving) that tracks each
/// component's node count. The lower root index wins a union, so every
/// result is a pure function of the edge order.
class Components {
public:
    explicit Components(std::size_t nodes) : parent_(nodes), size_(nodes, 1), count_(nodes) {
        std::iota(parent_.begin(), parent_.end(), std::size_t{0});
    }

    std::size_t find(std::size_t x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    /// Nodes in the component rooted at `root`.
    std::size_t size(std::size_t root) const { return size_[root]; }
    std::size_t count() const noexcept { return count_; }

    void unite(std::size_t a, std::size_t b) {
        a = find(a);
        b = find(b);
        if (a == b) return;
        if (b < a) std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
        --count_;
    }

private:
    std::vector<std::size_t> parent_;
    std::vector<std::size_t> size_;
    std::size_t count_;
};

}  // namespace

std::vector<std::uint32_t> partition_topology(const EdgeTable& table,
                                              std::size_t shards) {
    if (shards == 0) throw std::invalid_argument("partition_topology: zero shards");
    const std::size_t node_count = table.node_count;
    std::vector<PartitionEdge> edges = table.edges;
    std::stable_sort(edges.begin(), edges.end(),
                     [](const PartitionEdge& x, const PartitionEdge& y) {
                         if (x.lookahead_ns != y.lookahead_ns)
                             return x.lookahead_ns < y.lookahead_ns;
                         if (x.a != y.a) return x.a < y.a;
                         return x.b < y.b;
                     });
    auto pinned = [&table] {
        Components c(table.node_count);
        for (const PartitionEdge& e : table.edges) {
            if (!e.cuttable) c.unite(e.a, e.b);
        }
        return c;
    };

    // Pass 1 learns the lookahead floor L*: merge cuttable edges in
    // ascending lookahead order until `shards` components remain; the
    // cheapest edge that still crosses is the best lookahead any cut into
    // that many parts keeps. Merging alone makes that cut lopsided — equal
    // lookaheads merge in index order, so one component swallows the mesh.
    std::int64_t floor_ns = std::numeric_limits<std::int64_t>::max();
    {
        Components merged = pinned();
        for (const PartitionEdge& e : edges) {
            if (merged.count() <= shards) break;
            if (e.cuttable) merged.unite(e.a, e.b);
        }
        for (const PartitionEdge& e : edges) {
            if (e.cuttable && merged.find(e.a) != merged.find(e.b)) {
                floor_ns = e.lookahead_ns;  // edges ascend: the first is the least
                break;
            }
        }
    }

    // Pass 2 keeps L* and balances: every edge below it is contracted, as
    // pass 1 did; the rest merge in the same order only while the merged
    // component stays within a 1/shards share of the nodes.
    Components parts = pinned();
    const std::size_t cap = (node_count + shards - 1) / shards;
    for (const PartitionEdge& e : edges) {
        if (!e.cuttable) continue;
        if (e.lookahead_ns < floor_ns) {
            parts.unite(e.a, e.b);
            continue;
        }
        if (parts.count() <= shards) break;
        const std::size_t a = parts.find(e.a);
        const std::size_t b = parts.find(e.b);
        if (a != b && parts.size(a) + parts.size(b) <= cap) parts.unite(a, b);
    }

    // Components, largest first (min node index breaks size ties), packed
    // onto the least-loaded shard (lowest id breaks load ties): LPT.
    std::vector<std::pair<std::size_t, std::size_t>> comps;  // (root, size)
    for (std::size_t i = 0; i < node_count; ++i) {
        if (parts.find(i) == i) comps.emplace_back(i, parts.size(i));
    }
    std::stable_sort(comps.begin(), comps.end(),
                     [](const auto& x, const auto& y) {
                         if (x.second != y.second) return x.second > y.second;
                         return x.first < y.first;
                     });
    std::vector<std::size_t> load(shards, 0);
    std::vector<std::uint32_t> shard_of_root(node_count, 0);
    for (const auto& [root, size] : comps) {
        const auto lightest = static_cast<std::uint32_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        shard_of_root[root] = lightest;
        load[lightest] += size;
    }
    std::vector<std::uint32_t> out(node_count);
    for (std::size_t i = 0; i < node_count; ++i) out[i] = shard_of_root[parts.find(i)];
    return out;
}

// --- population --------------------------------------------------------

NodeId TopologyStore::add_node(NodeKind kind, std::uint32_t shard, Node* object) {
    const NodeId id = static_cast<NodeId>(kind_.size());
    kind_.push_back(static_cast<std::uint8_t>(kind));
    shard_.push_back(shard);
    addr_.push_back(0);
    home_.push_back(0);
    aux_.push_back(0);
    object_.push_back(object);
    incidence_.emplace_back();
    return id;
}

void TopologyStore::note_address(NodeId node, util::Ipv4Address addr) {
    if (addr_.at(node) == 0) addr_[node] = addr.value();
}

void TopologyStore::add_link(const LinkRow& row) {
    incidence_.at(row.a).push_back(Incidence{row.b, row.ifindex_a, row.addr_b});
    incidence_.at(row.b).push_back(Incidence{row.a, row.ifindex_b, row.addr_a});
    note_address(row.a, row.addr_a);
    note_address(row.b, row.addr_b);
    subnets_.push_back(
        SubnetRef{SubnetKind::Link, static_cast<std::uint32_t>(links_.size())});
    links_.push_back(row);
}

std::uint32_t TopologyStore::add_lan(util::Ipv4Prefix subnet, std::uint32_t shard) {
    const auto index = static_cast<std::uint32_t>(lans_.size());
    lans_.push_back(LanRow{subnet, shard, 1, {}});
    subnets_.push_back(SubnetRef{SubnetKind::Lan, index});
    return index;
}

void TopologyStore::attach_to_lan(std::uint32_t lan, NodeId node,
                                  std::uint32_t ifindex, util::Ipv4Address addr) {
    LanRow& row = lans_.at(lan);
    // A LAN is a full mesh at the node-graph level: every prior attachee
    // becomes a neighbor, in attach order (the BFS tie-break order).
    for (const Attachment& prior : row.attached) {
        incidence_.at(node).push_back(Incidence{prior.node, ifindex, prior.addr});
        incidence_.at(prior.node).push_back(Incidence{node, prior.ifindex, addr});
    }
    row.attached.push_back(Attachment{node, ifindex, addr});
    note_address(node, addr);
}

std::uint32_t TopologyStore::add_leaf_lan(ip::IpStack& gateway_ip, NodeId gateway,
                                          util::Ipv4Prefix subnet,
                                          std::uint32_t count, sim::Simulator& sim,
                                          std::string name) {
    if (count > 253) throw std::invalid_argument("leaf LAN larger than a /24");
    const auto index = static_cast<std::uint32_t>(leaf_lans_.size());
    stubs_.emplace_back(*this, index, sim, std::move(name));
    const util::Ipv4Address gw_addr(subnet.address().value() + 1);
    const auto ifindex = static_cast<std::uint32_t>(
        gateway_ip.add_interface(stubs_.back(), gw_addr, subnet));

    LeafLanRow row;
    row.subnet = subnet;
    row.gateway = gateway;
    row.gateway_ifindex = ifindex;
    row.gateway_addr = gw_addr;
    row.first = static_cast<NodeId>(kind_.size());
    row.count = count;
    row.counter_slot = static_cast<std::uint32_t>(counter_slab_.size());
    counter_slab_.emplace_back();

    const std::uint32_t shard = shard_.at(gateway);
    for (std::uint32_t i = 0; i < count; ++i) {
        const NodeId id = add_node(NodeKind::LeafHost, shard, nullptr);
        addr_[id] = subnet.address().value() + 2 + i;
        home_[id] = index;
        aux_[id] = static_cast<std::uint32_t>(leaf_rx_.size());
        leaf_rx_.push_back(0);
        leaf_tx_.push_back(0);
    }
    subnets_.push_back(SubnetRef{SubnetKind::Leaf, index});
    leaf_lans_.push_back(row);
    return index;
}

// --- subnet views -------------------------------------------------------

util::Ipv4Prefix TopologyStore::subnet_prefix(const SubnetRef& ref) const {
    switch (ref.kind) {
        case SubnetKind::Link: return links_.at(ref.index).subnet;
        case SubnetKind::Lan: return lans_.at(ref.index).subnet;
        case SubnetKind::Leaf: return leaf_lans_.at(ref.index).subnet;
    }
    throw std::logic_error("bad SubnetRef");
}

std::span<const TopologyStore::Attachment> TopologyStore::subnet_attachments(
    const SubnetRef& ref, Attachment (&out)[2]) const {
    switch (ref.kind) {
        case SubnetKind::Link: {
            const LinkRow& row = links_.at(ref.index);
            out[0] = Attachment{row.a, row.ifindex_a, row.addr_a};
            out[1] = Attachment{row.b, row.ifindex_b, row.addr_b};
            return {out, 2};
        }
        case SubnetKind::Lan:
            return {lans_.at(ref.index).attached.data(),
                    lans_.at(ref.index).attached.size()};
        case SubnetKind::Leaf: {
            const LeafLanRow& row = leaf_lans_.at(ref.index);
            out[0] = Attachment{row.gateway, row.gateway_ifindex, row.gateway_addr};
            return {out, 1};
        }
    }
    throw std::logic_error("bad SubnetRef");
}

EdgeTable TopologyStore::edge_table() const {
    EdgeTable table;
    table.node_count = node_count();
    for (const LinkRow& row : links_) {
        table.edges.push_back(
            PartitionEdge{row.a, row.b, row.lookahead_ns, /*cuttable=*/true});
    }
    // A shared medium is one shard's state: star edges pin every LAN's
    // attachees into one component. Same rule for leaf LANs — a compact
    // host has no engine of its own, it lives with its home gateway.
    for (const LanRow& lan : lans_) {
        for (std::size_t i = 1; i < lan.attached.size(); ++i) {
            table.edges.push_back(PartitionEdge{lan.attached.front().node,
                                                lan.attached[i].node, 0,
                                                /*cuttable=*/false});
        }
    }
    for (const LeafLanRow& lan : leaf_lans_) {
        for (std::uint32_t i = 0; i < lan.count; ++i) {
            table.edges.push_back(PartitionEdge{lan.gateway, lan.first + i, 0,
                                                /*cuttable=*/false});
        }
    }
    return table;
}

void TopologyStore::build_csr() {
    std::size_t total = 0;
    for (const auto& list : incidence_) total += list.size();
    if (csr_offset_.size() == node_count() + 1 && csr_built_incidences_ == total) {
        return;  // nothing changed since the last freeze
    }
    csr_offset_.assign(node_count() + 1, 0);
    csr_flat_.clear();
    csr_flat_.reserve(total);
    for (std::size_t i = 0; i < node_count(); ++i) {
        csr_offset_[i] = static_cast<std::uint32_t>(csr_flat_.size());
        csr_flat_.insert(csr_flat_.end(), incidence_[i].begin(), incidence_[i].end());
    }
    csr_offset_[node_count()] = static_cast<std::uint32_t>(csr_flat_.size());
    csr_built_incidences_ = total;
}

// --- leaf hosts ---------------------------------------------------------

NodeId TopologyStore::leaf_host(std::uint32_t leaf_lan, std::uint32_t i) const {
    const LeafLanRow& row = leaf_lans_.at(leaf_lan);
    if (i >= row.count) throw std::out_of_range("leaf_host: index past LAN size");
    return row.first + i;
}

std::uint32_t TopologyStore::leaf_inject_train(NodeId src, util::Ipv4Address dst,
                                               std::uint8_t protocol,
                                               std::span<const std::uint8_t> payload,
                                               std::uint32_t count,
                                               std::uint8_t ttl) {
    if (!is_leaf(src)) {
        throw std::invalid_argument("leaf_inject_train: not a leaf host");
    }
    const std::uint32_t lan = home_.at(src);
    StubLan& stub = stubs_.at(lan);
    if (!stub.is_up()) return 0;
    sim::Simulator& sim = stub.simulator();
    ip::Ipv4Header header;
    header.protocol = protocol;
    header.ttl = ttl;
    header.src = address(src);
    header.dst = dst;
    // One encode serves the whole train: every datagram is byte-identical
    // (no identification varies), so the per-packet cost collapses to a
    // pooled-buffer memcpy.
    util::ByteBuffer wire = ip::encode_datagram(header, payload, sim.buffer_pool());
    telemetry::CounterBlock& counters =
        counter_slab_[leaf_lans_.at(lan).counter_slot];
    std::uint64_t& tx = leaf_tx_[aux_.at(src)];

    for (std::uint32_t i = 0; i < count; ++i) {
        util::ByteBuffer copy = sim.buffer_pool().acquire(wire.size());
        copy.assign(wire.begin(), wire.end());
        ++tx;
        counters.inc(telemetry::Counter::IpTx);
        // The encoder just computed the header checksum over bytes nothing
        // can corrupt between here and the gateway (the stub LAN is
        // lossless), so the packet carries the checksum-offload vouch a
        // real host NIC would.
        stub.inject(link::Packet{std::move(copy), /*csum_ok=*/true});
    }
    sim.buffer_pool().recycle(std::move(wire));
    return count;
}

std::uint64_t TopologyStore::leaf_delivered_total() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t rx : leaf_rx_) total += rx;
    return total;
}

void TopologyStore::StubLan::send(link::Packet packet, util::Ipv4Address next_hop) {
    const LeafLanRow& row = store_.leaf_lans_.at(lan_);
    const std::uint32_t base = row.subnet.address().value();
    // Hosts occupy base+2 .. base+1+count (the gateway holds .1); anything
    // else aimed at this segment is a dead letter, silently discarded —
    // exactly what a real LAN does with an unclaimed frame.
    const std::uint32_t offset = next_hop.value() - base;
    ++stats_.packets_sent;
    stats_.bytes_sent += packet.size();
    if (offset >= 2 && offset - 2 < row.count) {
        const NodeId host = row.first + (offset - 2);
        ++store_.leaf_rx_[store_.aux_[host]];
        telemetry::CounterBlock& counters = store_.counter_slab_[row.counter_slot];
        counters.inc(telemetry::Counter::IpRx);
        counters.inc(telemetry::Counter::IpDeliver);
    } else {
        ++stats_.send_failures;
    }
    sim_.buffer_pool().recycle(std::move(packet.bytes));
}

// --- bookkeeping --------------------------------------------------------

void TopologyStore::reserve_nodes(std::size_t nodes, std::size_t leaf_hosts) {
    kind_.reserve(nodes);
    shard_.reserve(nodes);
    addr_.reserve(nodes);
    home_.reserve(nodes);
    aux_.reserve(nodes);
    object_.reserve(nodes);
    incidence_.reserve(nodes);
    leaf_rx_.reserve(leaf_hosts);
    leaf_tx_.reserve(leaf_hosts);
}

std::uint64_t TopologyStore::signature() const noexcept {
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (std::size_t i = 0; i < kind_.size(); ++i) {
        mix(kind_[i]);
        mix(shard_[i]);
        mix(addr_[i]);
        mix(home_[i]);
        for (const Incidence& inc : incidence_[i]) {
            mix(inc.peer);
            mix(inc.ifindex);
            mix(inc.peer_addr.value());
        }
    }
    auto mix_prefix = [&](const util::Ipv4Prefix& p) {
        mix(p.address().value());
        mix(static_cast<std::uint64_t>(p.length()));
    };
    for (const LinkRow& row : links_) {
        mix(row.a);
        mix(row.b);
        mix(row.ifindex_a);
        mix(row.ifindex_b);
        mix(row.addr_a.value());
        mix(row.addr_b.value());
        mix_prefix(row.subnet);
        mix(static_cast<std::uint64_t>(row.lookahead_ns));
    }
    for (const LanRow& lan : lans_) {
        mix_prefix(lan.subnet);
        mix(lan.shard);
        for (const Attachment& att : lan.attached) {
            mix(att.node);
            mix(att.ifindex);
            mix(att.addr.value());
        }
    }
    for (const LeafLanRow& lan : leaf_lans_) {
        mix_prefix(lan.subnet);
        mix(lan.gateway);
        mix(lan.gateway_ifindex);
        mix(lan.gateway_addr.value());
        mix(lan.first);
        mix(lan.count);
    }
    for (const SubnetRef& ref : subnets_) {
        mix(static_cast<std::uint64_t>(ref.kind));
        mix(ref.index);
    }
    return h;
}

}  // namespace catenet::core
