// The metrics registry: the run-wide directory of every counter block,
// link statistics source, event engine and gauge series, keyed by name — a
// MIB in miniature. Registration happens at topology-build time (the
// Internetwork registers each engine, node and link as it creates them), so by
// the time traffic flows the registry is read-only and the hot path never
// sees it: nodes increment their own blocks, links bump their own stats,
// and the registry only walks the pointers at report time, after the
// shards have quiesced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "link/netif.h"
#include "link/queue.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/gauges.h"

namespace catenet::telemetry {

/// One node's registration: its counter blocks, one per protocol stack
/// that owns counters (IP always; TCP/UDP on hosts). Blocks are merged
/// element-wise to get the node view — each stack writes disjoint slots.
struct NodeEntry {
    std::string name;
    std::uint32_t shard = 0;
    std::vector<const CounterBlock*> blocks;
};

/// One link's registration: const views of the statistics both ports and
/// both channel directions already keep. Queues are reached through an
/// accessor rather than a raw pointer because experiments may swap a
/// port's queue discipline after the link is built (set_queue_a), which
/// would dangle a cached pointer.
struct LinkEntry {
    std::string name;
    bool boundary = false;
    const link::NetIfStats* if_a = nullptr;
    const link::NetIfStats* if_b = nullptr;
    std::function<const link::QueueStats*()> queue_a;
    std::function<const link::QueueStats*()> queue_b;
    const link::ChannelStats* chan_a_to_b = nullptr;
    const link::ChannelStats* chan_b_to_a = nullptr;
};

/// One event engine's registration: a sequential run has one, a sharded
/// run one per shard. Its counters are the engine's own (sim::EngineStats),
/// not CounterBlock slots: they differ between a sharded run and its
/// sequential twin, which the digests over every slot must not.
struct EngineEntry {
    std::uint32_t shard = 0;
    const sim::Simulator* sim = nullptr;
};

class Registry {
public:
    /// Default gauge history: 4096 samples per series.
    static constexpr std::size_t kDefaultSeriesCapacity = std::size_t{1} << 12;

    std::size_t register_node(std::string name, std::uint32_t shard,
                              std::vector<const CounterBlock*> blocks) {
        nodes_.push_back(NodeEntry{std::move(name), shard, std::move(blocks)});
        return nodes_.size() - 1;
    }

    std::size_t register_link(LinkEntry entry) {
        links_.push_back(std::move(entry));
        return links_.size() - 1;
    }

    void register_engine(std::uint32_t shard, const sim::Simulator& sim) {
        engines_.push_back(EngineEntry{shard, &sim});
    }

    /// Creates (and owns) a gauge series; the pointer stays valid for the
    /// registry's lifetime.
    GaugeSeries& add_series(std::string name,
                            std::size_t capacity = kDefaultSeriesCapacity) {
        series_.push_back(std::make_unique<GaugeSeries>(std::move(name), capacity));
        return *series_.back();
    }

    const std::vector<NodeEntry>& nodes() const noexcept { return nodes_; }
    const std::vector<LinkEntry>& links() const noexcept { return links_; }
    const std::vector<EngineEntry>& engines() const noexcept { return engines_; }
    std::size_t series_count() const noexcept { return series_.size(); }
    const GaugeSeries& series(std::size_t i) const { return *series_.at(i); }

    /// One node's counters, all its blocks folded together.
    CounterBlock node_totals(std::size_t i) const {
        CounterBlock out;
        for (const CounterBlock* b : nodes_.at(i).blocks) out.merge(*b);
        return out;
    }

    /// The whole run's counters: every block of every node, merged. Order
    /// cannot matter (element-wise addition), which is what makes the
    /// sharded and sequential runs comparable slot for slot.
    CounterBlock totals() const {
        CounterBlock out;
        for (const NodeEntry& n : nodes_)
            for (const CounterBlock* b : n.blocks) out.merge(*b);
        return out;
    }

private:
    std::vector<NodeEntry> nodes_;
    std::vector<LinkEntry> links_;
    std::vector<EngineEntry> engines_;
    std::vector<std::unique_ptr<GaugeSeries>> series_;
};

}  // namespace catenet::telemetry
