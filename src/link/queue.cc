#include "link/queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace catenet::link {

DropTailQueue::DropTailQueue(std::size_t capacity_packets) : capacity_(capacity_packets) {
    if (capacity_packets == 0) throw std::invalid_argument("DropTailQueue: zero capacity");
}

bool DropTailQueue::enqueue(Packet&& packet) {
    if (count_ == slots_.size()) {
        if (count_ == capacity_) {
            ++stats_.dropped;
            stats_.bytes_dropped += packet.size();
            return false;
        }
        // Before the packet moves: if the allocation throws, the caller
        // still holds it intact, as the PacketQueue contract requires.
        grow();
    }
    ++stats_.enqueued;
    stats_.bytes_enqueued += packet.size();
    bytes_ += packet.size();
    // head_ and count_ are both < size, so one conditional subtract wraps
    // the ring — no integer division on the per-packet path.
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(packet);
    ++count_;
    return true;
}

void DropTailQueue::grow() {
    std::vector<Packet> ring(std::min(capacity_, std::max(kFirstSlots, 2 * slots_.size())));
    // The ring is full, so the backlog is every slot: head_ to the end,
    // then the front up to head_.
    const auto head = slots_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto rest = std::move(head, slots_.end(), ring.begin());
    std::move(slots_.begin(), head, rest);
    slots_ = std::move(ring);
    head_ = 0;
}

std::optional<Packet> DropTailQueue::dequeue() {
    if (count_ == 0) return std::nullopt;
    Packet p = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --count_;
    bytes_ -= p.size();
    ++stats_.dequeued;
    return p;
}

void DropTailQueue::flush(util::BufferPool& pool) {
    for (; count_ > 0; --count_) {
        // The exchange empties the slot even when the pool is full.
        pool.recycle(std::exchange(slots_[head_].bytes, {}));
        if (++head_ == slots_.size()) head_ = 0;
        ++stats_.flushed;
    }
    bytes_ = 0;
}

PriorityQueue::PriorityQueue(std::size_t levels, std::size_t per_level_capacity,
                             Classifier level_of)
    : level_of_(std::move(level_of)) {
    if (levels == 0 || per_level_capacity == 0) {
        throw std::invalid_argument("PriorityQueue: zero levels or capacity");
    }
    levels_.assign(levels, DropTailQueue(per_level_capacity));
}

bool PriorityQueue::enqueue(Packet&& packet) {
    auto level = static_cast<std::size_t>(level_of_(packet));
    if (level >= levels_.size()) level = levels_.size() - 1;
    const std::size_t size = packet.size();
    if (!levels_[level].enqueue(std::move(packet))) {
        ++stats_.dropped;
        stats_.bytes_dropped += size;
        return false;
    }
    ++stats_.enqueued;
    stats_.bytes_enqueued += size;
    return true;
}

std::optional<Packet> PriorityQueue::dequeue() {
    for (auto& level : levels_) {
        if (auto p = level.dequeue()) {
            ++stats_.dequeued;
            return p;
        }
    }
    return std::nullopt;
}

std::size_t PriorityQueue::packets() const noexcept {
    std::size_t n = 0;
    for (const auto& level : levels_) n += level.packets();
    return n;
}

std::size_t PriorityQueue::bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& level : levels_) n += level.bytes();
    return n;
}

void PriorityQueue::flush(util::BufferPool& pool) {
    stats_.flushed += packets();
    for (auto& level : levels_) level.flush(pool);
}

FairQueue::FairQueue(std::size_t per_flow_capacity, std::size_t quantum_bytes,
                     Classifier flow_of)
    : per_flow_capacity_(per_flow_capacity),
      quantum_(quantum_bytes),
      flow_of_(std::move(flow_of)) {
    if (per_flow_capacity == 0 || quantum_bytes == 0) {
        throw std::invalid_argument("FairQueue: zero capacity or quantum");
    }
}

bool FairQueue::enqueue(Packet&& packet) {
    const std::uint64_t id = flow_of_(packet);
    auto [it, inserted] = flows_.try_emplace(id);
    Flow& flow = it->second;
    if (flow.q.size() >= per_flow_capacity_) {
        ++stats_.dropped;
        stats_.bytes_dropped += packet.size();
        if (inserted) flows_.erase(it);
        return false;
    }
    if (flow.q.empty()) {
        // (Re)activate the flow at the back of the round.
        round_robin_.push_back(id);
        flow.deficit = 0;
    }
    ++stats_.enqueued;
    stats_.bytes_enqueued += packet.size();
    ++packets_;
    bytes_ += packet.size();
    flow.q.push_back(std::move(packet));
    return true;
}

std::optional<Packet> FairQueue::dequeue() {
    while (!round_robin_.empty()) {
        const std::uint64_t id = round_robin_.front();
        auto it = flows_.find(id);
        // Flows leave flows_ only when their queue drains, at which point
        // they are also removed from the round; the entry must exist.
        Flow& flow = it->second;
        if (flow.deficit < flow.q.front().size()) {
            // Not enough credit: add a quantum and move to the back.
            flow.deficit += quantum_;
            round_robin_.pop_front();
            round_robin_.push_back(id);
            continue;
        }
        Packet p = std::move(flow.q.front());
        flow.q.pop_front();
        flow.deficit -= p.size();
        --packets_;
        bytes_ -= p.size();
        ++stats_.dequeued;
        if (flow.q.empty()) {
            // Soft state evaporates with the backlog.
            flows_.erase(it);
            round_robin_.pop_front();
        }
        return p;
    }
    return std::nullopt;
}

void FairQueue::flush(util::BufferPool& pool) {
    for (auto& entry : flows_) {
        for (Packet& p : entry.second.q) pool.recycle(std::move(p.bytes));
    }
    stats_.flushed += packets_;
    flows_.clear();
    round_robin_.clear();
    packets_ = 0;
    bytes_ = 0;
}

}  // namespace catenet::link
