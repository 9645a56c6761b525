// The binary flight recorder's hot half: a fixed 32-byte packet-event
// record and a bounded per-lane ring to store it in. Writing a record is
// one index computation and one trivially-copyable struct store — no
// formatting, no allocation, no synchronization (each lane has exactly one
// writer: the shard thread that owns the node). The cold half — rendering
// rings back into trace lines — lives in flight_recorder.h, which this
// header deliberately does not include: the IP stack's per-packet path
// depends only on what is defined here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/drop_reason.h"

namespace catenet::telemetry {

/// Datagram event kinds: "tx" = first transmission of a locally
/// originated datagram, "rx" = arrived from a network, "deliver" = handed
/// to a local protocol, "fwd" = forwarded toward the next hop, "drop" =
/// discarded (the record's reason says why).
enum class PacketEvent : std::uint8_t { Tx = 0, Rx, Deliver, Fwd, Drop };

/// An event's spelling in a rendered trace line.
constexpr const char* to_cstr(PacketEvent e) noexcept {
    switch (e) {
        case PacketEvent::Tx: return "tx";
        case PacketEvent::Rx: return "rx";
        case PacketEvent::Deliver: return "deliver";
        case PacketEvent::Fwd: return "fwd";
        case PacketEvent::Drop: return "drop";
    }
    return "?";
}

/// One datagram event, fixed width. Addresses are host-order; frag_off is
/// in 8-octet units (the wire encoding). 24 bytes of payload packed to 32.
struct PacketRecord {
    std::int64_t t_ns = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t wire_bytes = 0;
    std::uint16_t frag_off = 0;
    std::uint8_t event = 0;     ///< PacketEvent
    std::uint8_t protocol = 0;
    std::uint8_t ttl = 0;
    std::uint8_t tos = 0;
    std::uint8_t more_fragments = 0;
    std::uint8_t reason = 0;    ///< DropReason (None unless event == Drop)
};
static_assert(sizeof(PacketRecord) == 32);
static_assert(std::is_trivially_copyable_v<PacketRecord>);

/// A bounded ring of records owned by one node. Capacity is rounded up to
/// a power of two so the steady-state append indexes with a mask; when the
/// ring laps, the oldest records are overwritten (a flight recorder keeps
/// the most recent history, and reports how much it forgot).
class RecorderLane {
public:
    explicit RecorderLane(std::size_t capacity) {
        std::size_t cap = 1;
        while (cap < capacity) cap <<= 1;
        ring_.resize(cap);
    }

    void append(const PacketRecord& r) noexcept {
#ifndef CATENET_NO_TELEMETRY
        ring_[total_ & (ring_.size() - 1)] = r;
        ++total_;
#else
        (void)r;
#endif
    }

    std::size_t capacity() const noexcept { return ring_.size(); }
    /// Records ever appended (monotone; exceeds capacity once lapped).
    std::uint64_t total() const noexcept { return total_; }
    /// Records still held: the most recent min(total, capacity).
    std::size_t held() const noexcept {
        return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
    }
    /// Records lost to ring wrap (0 until the lane laps).
    std::uint64_t overwritten() const noexcept { return total_ - held(); }

    /// i-th held record in time order (0 = oldest still held).
    const PacketRecord& at(std::size_t i) const noexcept {
        return ring_[(total_ - held() + i) & (ring_.size() - 1)];
    }

    void clear() noexcept { total_ = 0; }

private:
    std::vector<PacketRecord> ring_;
    std::uint64_t total_ = 0;
};

}  // namespace catenet::telemetry
