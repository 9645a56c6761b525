// The struct-of-arrays topology core (DESIGN.md §11). Clark's scaling
// argument — the entities implementing the architecture "must be able to
// scale to large values" — is a statement about the *representation* of
// the catenet as much as about the protocols: a million-host internet
// cannot be a million heap objects threaded through std::maps. This store
// keeps the node graph as dense indices into parallel arrays:
//
//   - every node (host, gateway, or compact leaf host) is a NodeId into
//     parallel kind / shard / address / object arrays;
//   - point-to-point links are rows of a flat edge table; the partitioner
//     consumes that table directly (EdgeTable / partition_topology);
//   - per-node adjacency is kept in chronological incidence lists and
//     frozen into CSR spans (build_csr) for the routing passes, which walk
//     offsets into one flat array instead of chasing map nodes;
//   - "leaf" hosts — the million-node population — are *not* objects at
//     all: a leaf LAN is one record (subnet, home gateway, span of ids)
//     whose hosts share a single default-route template (the record is the
//     route: via the home gateway, one hop) and one slab-allocated
//     telemetry counter block, with a few bytes of genuinely per-host
//     state (address is implicit in the span; tx/rx tallies are two u64s).
//
// The Internetwork builder owns one store and populates it as the
// topology is built; examples and tests keep their object-level API while
// the routing/partitioning passes and the scale benchmarks run on the
// arrays.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "link/netif.h"
#include "link/packet.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "util/ip_address.h"

namespace catenet::ip {
class IpStack;
}

namespace catenet::core {

class Node;

/// Dense node index, assigned in construction order (the deterministic
/// tie-break order used everywhere else: RNG forks, trace lanes, shards).
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

enum class NodeKind : std::uint8_t {
    Host = 0,      ///< materialized end system (full transport stack)
    Gateway = 1,   ///< materialized packet switch
    LeafHost = 2,  ///< compact host-class node: exists only in the arrays
};

/// One edge of the node graph as seen by the partitioner.
struct PartitionEdge {
    std::size_t a = 0;  ///< node indices (order of add_host/add_gateway)
    std::size_t b = 0;
    std::int64_t lookahead_ns = 0;  ///< link::LinkParams::lookahead()
    bool cuttable = true;  ///< false pins both ends into one shard (e.g. LANs)
};

/// The flat edge table the partitioner consumes: no Node pointers, no
/// maps — just index pairs. TopologyStore::edge_table() derives one from
/// a built topology; generators build one directly from their plan.
struct EdgeTable {
    std::size_t node_count = 0;
    std::vector<PartitionEdge> edges;
};

/// Greedy latency-aware, size-balanced partition of a node graph into
/// `shards` parts. Non-cuttable edges are always contracted. A first pass
/// merges cuttable edges in ascending (lookahead, a, b) order until at
/// most `shards` components remain, only to learn L*, the smallest
/// lookahead on the cut that merge leaves — the best window bound a cut
/// into `shards` parts can keep. The real pass contracts every cuttable
/// edge below L*, then merges the rest in the same order only while the
/// merged component holds at most ceil(node_count / shards) nodes, so
/// equal-lookahead meshes split evenly instead of one component
/// swallowing the graph; no cut edge is ever below L*. Components pack
/// largest first onto the least-loaded shard (LPT). The cap is computed
/// from the graph, and the result is fully deterministic. Returns the
/// shard id per node.
std::vector<std::uint32_t> partition_topology(const EdgeTable& table,
                                              std::size_t shards);

/// One incidence: a single-hop neighbor, through which local interface, at
/// what next-hop address. Chronological order (the order edges and LAN
/// attachments were created) is part of the store's contract: the routing
/// passes' tie-breaks follow it, keeping route selection reproducible.
struct Incidence {
    NodeId peer = kNoNode;
    std::uint32_t ifindex = 0;
    util::Ipv4Address peer_addr;
};

class TopologyStore {
public:
    /// A point-to-point link row. `lookahead_ns` is the conservative
    /// engine's per-edge budget (link::LinkParams::lookahead()).
    struct LinkRow {
        NodeId a = kNoNode;
        NodeId b = kNoNode;
        std::uint32_t ifindex_a = 0;
        std::uint32_t ifindex_b = 0;
        util::Ipv4Address addr_a;
        util::Ipv4Address addr_b;
        util::Ipv4Prefix subnet;
        std::int64_t lookahead_ns = 0;
    };

    struct Attachment {
        NodeId node = kNoNode;
        std::uint32_t ifindex = 0;
        util::Ipv4Address addr;
    };

    /// A materialized shared-medium LAN segment.
    struct LanRow {
        util::Ipv4Prefix subnet;
        std::uint32_t shard = 0;
        std::uint32_t next_octet = 1;
        std::vector<Attachment> attached;
    };

    /// A compact stub LAN: `count` leaf hosts homed on one gateway. This
    /// record *is* the hosts' shared routing state — every host's table
    /// collapses to "default via the home gateway", so the store keeps one
    /// route template per LAN instead of one RoutingTable per host.
    struct LeafLanRow {
        util::Ipv4Prefix subnet;
        NodeId gateway = kNoNode;
        std::uint32_t gateway_ifindex = 0;  ///< the stub interface on the gateway
        util::Ipv4Address gateway_addr;     ///< .1: the shared default next hop
        NodeId first = kNoNode;             ///< leaf ids are [first, first+count)
        std::uint32_t count = 0;
        std::uint32_t counter_slot = 0;  ///< index into the counter slab
    };

    /// Which array a subnet's prefix lives in, in allocation order — the
    /// route-computation passes iterate subnets in this sequence, which
    /// reproduces the legacy builder's creation-order tie-breaks.
    enum class SubnetKind : std::uint8_t { Link, Lan, Leaf };
    struct SubnetRef {
        SubnetKind kind;
        std::uint32_t index;  ///< into links() / lans() / leaf_lans()
    };

    // --- population ----------------------------------------------------
    NodeId add_node(NodeKind kind, std::uint32_t shard, Node* object);
    void add_link(const LinkRow& row);
    std::uint32_t add_lan(util::Ipv4Prefix subnet, std::uint32_t shard);
    /// Appends an attachment and the full-mesh incidences against every
    /// prior attachee. Returns the address octet the caller assigned.
    void attach_to_lan(std::uint32_t lan, NodeId node, std::uint32_t ifindex,
                       util::Ipv4Address addr);
    /// Records a node's first assigned address as its primary (no-op once set).
    void note_address(NodeId node, util::Ipv4Address addr);

    /// Creates a stub LAN of `count` compact leaf hosts homed on
    /// `gateway`: attaches one stub interface (address .1 of `subnet`) to
    /// the gateway's IP stack, allocates the leaf ids and their per-host
    /// tallies, and one shared counter block from the slab. Host i's
    /// address is subnet base + 2 + i, so `count` must be <= 253.
    std::uint32_t add_leaf_lan(ip::IpStack& gateway_ip, NodeId gateway,
                               util::Ipv4Prefix subnet, std::uint32_t count,
                               sim::Simulator& sim, std::string name);

    // --- node arrays ---------------------------------------------------
    std::size_t node_count() const noexcept { return kind_.size(); }
    NodeKind kind(NodeId id) const { return static_cast<NodeKind>(kind_.at(id)); }
    std::uint32_t shard(NodeId id) const { return shard_.at(id); }
    util::Ipv4Address address(NodeId id) const {
        return util::Ipv4Address(addr_.at(id));
    }
    /// nullptr for leaf hosts.
    Node* object(NodeId id) const { return object_.at(id); }

    const std::vector<Incidence>& incidences(NodeId id) const {
        return incidence_.at(id);
    }

    // --- edge/LAN/subnet arrays ---------------------------------------
    std::span<const LinkRow> links() const noexcept { return links_; }
    std::span<const LanRow> lans() const noexcept { return lans_; }
    LanRow& lan(std::uint32_t i) { return lans_.at(i); }
    std::span<const LeafLanRow> leaf_lans() const noexcept { return leaf_lans_; }
    std::span<const SubnetRef> subnets() const noexcept { return subnets_; }
    util::Ipv4Prefix subnet_prefix(const SubnetRef& ref) const;
    /// The attachments of a subnet (2 for a link row, the attach list for
    /// a LAN, the home gateway's stub for a leaf LAN — written into `out`,
    /// returned as a span to keep the hot loop allocation-free).
    std::span<const Attachment> subnet_attachments(const SubnetRef& ref,
                                                   Attachment (&out)[2]) const;

    /// Derives the partitioner's edge table: every link row becomes a
    /// cuttable edge; every LAN pins its attachees together with
    /// non-cuttable star edges (a shared medium is one shard's state).
    EdgeTable edge_table() const;

    /// Frozen CSR adjacency over the incidence lists: neighbors(id) is a
    /// contiguous span in one flat array, in chronological order. Must be
    /// (re)built after the last mutation; build_csr is idempotent and
    /// cheap when nothing changed.
    void build_csr();
    std::span<const Incidence> neighbors(NodeId id) const {
        return std::span<const Incidence>(csr_flat_).subspan(
            csr_offset_[id], csr_offset_[id + 1] - csr_offset_[id]);
    }

    // --- leaf hosts ----------------------------------------------------
    bool is_leaf(NodeId id) const { return kind(id) == NodeKind::LeafHost; }
    /// The leaf LAN a leaf host belongs to.
    std::uint32_t leaf_lan_of(NodeId id) const { return home_.at(id); }
    NodeId leaf_host(std::uint32_t leaf_lan, std::uint32_t i) const;
    /// Injects `count` identical freshly encoded datagrams sourced at leaf
    /// `src` into its home gateway, as if the host had transmitted them
    /// onto the stub LAN one at a time (one encode, pooled buffer copies —
    /// the soak's wave loop measures forwarding, not per-packet encode
    /// setup). Returns how many were injected (0 if the gateway-side
    /// interface is down).
    std::uint32_t leaf_inject_train(NodeId src, util::Ipv4Address dst,
                                    std::uint8_t protocol,
                                    std::span<const std::uint8_t> payload,
                                    std::uint32_t count, std::uint8_t ttl = 64);
    /// One datagram: a train of one. Returns false if the gateway-side
    /// interface is down.
    bool leaf_inject(NodeId src, util::Ipv4Address dst, std::uint8_t protocol,
                     std::span<const std::uint8_t> payload, std::uint8_t ttl = 64) {
        return leaf_inject_train(src, dst, protocol, payload, 1, ttl) == 1;
    }
    std::uint64_t leaf_delivered(NodeId id) const { return leaf_rx_.at(aux_.at(id)); }
    std::uint64_t leaf_sent(NodeId id) const { return leaf_tx_.at(aux_.at(id)); }
    std::uint64_t leaf_delivered_total() const noexcept;
    /// The shared counter block of one leaf LAN (slab storage).
    const telemetry::CounterBlock& leaf_counters(std::uint32_t leaf_lan) const {
        return counter_slab_.at(leaf_lans_.at(leaf_lan).counter_slot);
    }

    /// Pre-sizes the node arrays (generators know their population).
    void reserve_nodes(std::size_t nodes, std::size_t leaf_hosts);

    /// FNV-1a over every array: two builds are byte-identical iff their
    /// signatures match (and the arrays can be compared directly in tests).
    std::uint64_t signature() const noexcept;

private:
    /// The delivery surface of a leaf LAN: one NetIf on the home gateway
    /// standing in for the whole segment. Egress (gateway -> LAN) tallies
    /// the destination host and recycles the buffer; inject() plays a
    /// host-originated datagram into the gateway's receive path.
    class StubLan final : public link::NetIf {
    public:
        StubLan(TopologyStore& store, std::uint32_t lan_index, sim::Simulator& sim,
                std::string name)
            : store_(store), lan_(lan_index), sim_(sim), name_(std::move(name)) {}

        std::size_t mtu() const noexcept override { return 1500; }
        const std::string& name() const noexcept override { return name_; }
        void send(link::Packet packet, util::Ipv4Address next_hop) override;
        void inject(link::Packet&& packet) {
            if (!deliver(std::move(packet))) sim_.buffer_pool().recycle(std::move(packet.bytes));
        }
        sim::Simulator& simulator() noexcept { return sim_; }

    private:
        TopologyStore& store_;
        std::uint32_t lan_;
        sim::Simulator& sim_;
        std::string name_;
    };

    // Parallel node arrays. `aux_` is the leaf ordinal for leaf hosts
    // (index into leaf_rx_/leaf_tx_ and the id->tally indirection).
    std::vector<std::uint8_t> kind_;
    std::vector<std::uint32_t> shard_;
    std::vector<std::uint32_t> addr_;
    std::vector<std::uint32_t> home_;  ///< leaf LAN index (leaf hosts only)
    std::vector<std::uint32_t> aux_;
    std::vector<Node*> object_;
    std::vector<std::vector<Incidence>> incidence_;

    std::vector<LinkRow> links_;
    std::vector<LanRow> lans_;
    std::vector<LeafLanRow> leaf_lans_;
    std::vector<SubnetRef> subnets_;

    // CSR snapshot of incidence_ for the routing passes.
    std::vector<std::uint32_t> csr_offset_;
    std::vector<Incidence> csr_flat_;
    std::size_t csr_built_incidences_ = 0;

    // Leaf-host state: two u64 tallies per host (u32 would wrap partway
    // through a long soak — the accessors always promised u64), one
    // counter block per LAN. The slab is a deque so registered block
    // pointers stay stable.
    std::vector<std::uint64_t> leaf_rx_;
    std::vector<std::uint64_t> leaf_tx_;
    std::deque<telemetry::CounterBlock> counter_slab_;
    std::deque<StubLan> stubs_;
};

}  // namespace catenet::core
