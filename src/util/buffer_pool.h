// A free list of ByteBuffer capacity. The send path allocates one wire
// buffer per datagram; the receive path destroys one per datagram. In
// steady state those rates match, so recycling the vector's heap block
// between them makes the whole host-to-host datagram cycle allocation-free
// (Clark's cost-effectiveness goal applied to per-packet processing).
//
// The pool holds *capacity*, never contents: acquire() hands back an empty
// buffer (size 0) whose reserve is whatever its previous life left behind,
// and every codec that uses the pool writes its full output before anyone
// reads it. Losing the pool (or never feeding it) costs nothing but fresh
// allocations — it is pure soft state.
#pragma once

#include <cstddef>
#include <vector>

#include "util/byte_buffer.h"

namespace catenet::util {

struct BufferPoolStats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;    ///< acquires served from the free list
    std::uint64_t recycles = 0;  ///< buffers accepted back
};

class BufferPool {
public:
    /// Caps how many retired buffers the pool keeps. Beyond it, recycled
    /// buffers are simply freed — the pool bounds memory, not correctness.
    explicit BufferPool(std::size_t max_pooled = 128) : max_pooled_(max_pooled) {
        // Reserving up front keeps recycle() genuinely non-allocating (and
        // honestly noexcept): the free list itself never grows afterwards.
        free_.reserve(max_pooled_);
    }

    /// Returns an empty buffer with at least `capacity_hint` reserved,
    /// reusing a retired buffer's allocation when one is available.
    ///
    /// Selection is first-fit from the most recently recycled end: traffic
    /// mixes buffer sizes (40-byte ACKs between 1500-byte data segments),
    /// and blindly taking the newest buffer would regrow a small one for a
    /// large request — an allocation the pool exists to avoid. The scan is
    /// O(1) when the newest buffer fits (homogeneous traffic) and bounded
    /// by max_pooled otherwise; only when nothing pooled is big enough does
    /// the reserve below actually allocate.
    ByteBuffer acquire(std::size_t capacity_hint) {
        ++stats_.acquires;
        if (!free_.empty()) {
            ++stats_.reuses;
            std::size_t pick = free_.size() - 1;
            if (free_[pick].capacity() < capacity_hint) {
                for (std::size_t i = free_.size(); i-- > 0;) {
                    if (free_[i].capacity() >= capacity_hint) {
                        pick = i;
                        break;
                    }
                }
            }
            ByteBuffer b = std::move(free_[pick]);
            free_[pick] = std::move(free_.back());
            free_.pop_back();
            b.clear();
            b.reserve(capacity_hint);
            return b;
        }
        ByteBuffer b;
        b.reserve(capacity_hint);
        return b;
    }

    /// Returns a pooled buffer of *any* capacity — the newest one — or an
    /// empty buffer when the pool is dry, never allocating either way. The
    /// boundary-channel handoff uses this to leave a retired buffer in an
    /// outbox slot as it stages the slot's packet: any carcass will do,
    /// because the capacity is headed for a *different* shard's pool (see
    /// link/point_to_point.cc).
    ByteBuffer take_any() noexcept {
        if (free_.empty()) return {};
        ByteBuffer b = std::move(free_.back());
        free_.pop_back();
        return b;
    }

    /// Donates a retired buffer's capacity. Empty (capacity-less) buffers —
    /// including moved-from ones — are ignored, so callers may recycle
    /// unconditionally at every packet-retirement point.
    void recycle(ByteBuffer&& buffer) noexcept {
        if (buffer.capacity() == 0 || free_.size() >= max_pooled_) return;
        ++stats_.recycles;
        free_.push_back(std::move(buffer));
    }

    std::size_t pooled() const noexcept { return free_.size(); }
    const BufferPoolStats& stats() const noexcept { return stats_; }

private:
    std::vector<ByteBuffer> free_;
    std::size_t max_pooled_;
    BufferPoolStats stats_;
};

}  // namespace catenet::util
