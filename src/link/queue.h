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

namespace catenet::link {

struct QueueStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
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
    virtual void clear() = 0;

    bool empty() const noexcept { return packets() == 0; }
    const QueueStats& stats() const noexcept { return stats_; }

protected:
    QueueStats stats_;
};

/// FIFO with a packet-count cap; the classic 1988 gateway buffer.
/// Implemented as a fixed ring over preallocated slots: the bounded
/// capacity is the whole point of the discipline, so the hot
/// enqueue/dequeue cycle never touches the allocator (a deque allocates
/// and frees a block every few packets as the ring of use crosses block
/// boundaries).
class DropTailQueue final : public PacketQueue {
public:
    explicit DropTailQueue(std::size_t capacity_packets);

    bool enqueue(Packet&& packet) override;
    std::optional<Packet> dequeue() override;
    std::size_t packets() const noexcept override { return count_; }
    std::size_t bytes() const noexcept override { return bytes_; }
    void clear() override;

private:
    std::vector<Packet> slots_;  ///< fixed size = capacity, ring-indexed
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t bytes_ = 0;
};

/// Maps a packet to a flow id (for fair queuing) or a priority level.
/// Gateways install a classifier that parses the IP/transport headers.
using Classifier = std::function<std::uint64_t(const Packet&)>;

/// Strict priority with N levels (level 0 = highest), each drop-tail
/// bounded. Models type-of-service / precedence handling (goal 2).
class PriorityQueue final : public PacketQueue {
public:
    PriorityQueue(std::size_t levels, std::size_t per_level_capacity, Classifier level_of);

    bool enqueue(Packet&& packet) override;
    std::optional<Packet> dequeue() override;
    std::size_t packets() const noexcept override { return packets_; }
    std::size_t bytes() const noexcept override { return bytes_; }
    void clear() override;

private:
    std::vector<std::deque<Packet>> levels_;
    std::size_t per_level_capacity_;
    Classifier level_of_;
    std::size_t packets_ = 0;
    std::size_t bytes_ = 0;
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
    void clear() override;

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
