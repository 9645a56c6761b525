// Egress queue disciplines. Gateways in the base architecture use plain
// drop-tail FIFO (the 1988 reality). The "flows and soft state" experiment
// (E10) and the type-of-service experiments swap in fair queuing and
// strict-priority disciplines via this common interface.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "link/packet.h"
#include "util/buffer_pool.h"

namespace catenet::link {

struct QueueStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;  ///< refused at admission
    std::uint64_t flushed = 0;  ///< admitted, then discarded by flush()
    std::uint64_t bytes_enqueued = 0;
    std::uint64_t bytes_dropped = 0;
};

class PacketQueue {
public:
    virtual ~PacketQueue() = default;

    /// Returns false (and records a drop) when the packet was not
    /// accepted. Takes an rvalue reference — NOT by value — so that a
    /// rejected packet is left intact in the caller's hands (drop
    /// observers inspect it); implementations move from it only on
    /// acceptance.
    virtual bool enqueue(Packet&& packet) = 0;
    virtual std::optional<Packet> dequeue() = 0;
    virtual std::size_t packets() const noexcept = 0;
    virtual std::size_t bytes() const noexcept = 0;
    /// Discards every queued packet (its link went down): each counts in
    /// stats().flushed and its buffer goes back to `pool`, the pool of the
    /// simulator that owns the port.
    virtual void flush(util::BufferPool& pool) = 0;

    bool empty() const noexcept { return packets() == 0; }
    const QueueStats& stats() const noexcept { return stats_; }

protected:
    QueueStats stats_;
};

/// FIFO with a packet-count cap; the classic 1988 gateway buffer. The
/// capacity is an admission limit, not memory held in reserve: the ring
/// starts with no slots, and when a packet finds it full below capacity
/// it doubles (from kFirstSlots, capped at the capacity), moving the
/// backlog to the front in FIFO order. It never shrinks, so once a port
/// has reached a depth its enqueue/dequeue cycle never touches the
/// allocator again (a deque allocates and frees a block every few packets
/// as the ring of use crosses block boundaries), and a port that never
/// queues holds no slot at all.
class DropTailQueue final : public PacketQueue {
public:
    explicit DropTailQueue(std::size_t capacity_packets);

    bool enqueue(Packet&& packet) override;
    std::optional<Packet> dequeue() override;
    std::size_t packets() const noexcept override { return count_; }
    std::size_t bytes() const noexcept override { return bytes_; }
    void flush(util::BufferPool& pool) override;

private:
    static constexpr std::size_t kFirstSlots = 8;

    void grow();

    std::vector<Packet> slots_;  ///< the ring; grows toward capacity_, never shrinks
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t bytes_ = 0;
};

/// Maps a packet to a flow id (for fair queuing) or a priority level.
/// Gateways install a classifier that parses the IP/transport headers.
using Classifier = std::function<std::uint64_t(const Packet&)>;

/// Strict priority with N levels (level 0 = highest), each a
/// DropTailQueue of per_level_capacity; a level past the last clamps to
/// the last. Models type-of-service / precedence handling (goal 2).
/// stats() aggregates the levels.
class PriorityQueue final : public PacketQueue {
public:
    PriorityQueue(std::size_t levels, std::size_t per_level_capacity, Classifier level_of);

    bool enqueue(Packet&& packet) override;
    std::optional<Packet> dequeue() override;
    std::size_t packets() const noexcept override;
    std::size_t bytes() const noexcept override;
    void flush(util::BufferPool& pool) override;

private:
    std::vector<DropTailQueue> levels_;
    Classifier level_of_;
};

/// Deficit-round-robin fair queue across dynamically discovered flows.
/// Per-flow state is *soft*: it exists only while the flow has packets
/// queued, exactly in the spirit of the paper's "flows and soft state"
/// section — losing it harms nothing but short-term fairness.
class FairQueue final : public PacketQueue {
public:
    FairQueue(std::size_t per_flow_capacity, std::size_t quantum_bytes, Classifier flow_of);

    bool enqueue(Packet&& packet) override;
    std::optional<Packet> dequeue() override;
    std::size_t packets() const noexcept override { return packets_; }
    std::size_t bytes() const noexcept override { return bytes_; }
    void flush(util::BufferPool& pool) override;

    /// Number of flows that currently hold queued packets (soft state size).
    std::size_t active_flows() const noexcept { return flows_.size(); }

private:
    struct Flow {
        std::deque<Packet> q;
        std::size_t deficit = 0;
    };

    std::size_t per_flow_capacity_;
    std::size_t quantum_;
    Classifier flow_of_;
    std::map<std::uint64_t, Flow> flows_;
    std::deque<std::uint64_t> round_robin_;
    std::size_t packets_ = 0;
    std::size_t bytes_ = 0;
};

}  // namespace catenet::link
