// The flight recorder's cold half: lane management and post-run decoding.
// Lanes are created in deterministic order (lane id = merge tie-break
// rank); each lane is attached to one IpStack via IpStack::set_recorder and
// written only by that node's shard thread. Between runs, decode_lane() /
// merged() render the binary records as tcpdump-style trace lines through
// format_trace_line, the library's one packet-trace formatter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/record.h"

namespace catenet::telemetry {

/// Protocol number -> short name ("TCP", "UDP", "ICMP", "EGP", "DV", or
/// the number in decimal).
std::string protocol_name(std::uint8_t protocol);

/// Renders one record of node `name` as a complete trace line (trailing
/// newline included):
///   [   1.234567] gw fwd     10.0.1.1 > 10.0.3.2 TCP 1460B ttl=63 tos=0x10 frag=1480+
/// Ports are not parsed: the stack records at the IP layer.
std::string format_trace_line(const PacketRecord& r, const std::string& name);

class FlightRecorder {
public:
    /// Default per-lane capacity: 64k records = 2 MiB per node.
    static constexpr std::size_t kDefaultLaneCapacity = 1 << 16;

    /// Creates a lane; returns its id (merge tie-break rank — create lanes
    /// in deterministic order).
    std::size_t add_lane(std::string name,
                         std::size_t capacity = kDefaultLaneCapacity);

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    RecorderLane& lane(std::size_t i) { return lanes_.at(i)->ring; }
    const RecorderLane& lane(std::size_t i) const { return lanes_.at(i)->ring; }
    const std::string& lane_name(std::size_t i) const { return lanes_.at(i)->name; }

    /// One lane's held records rendered as trace lines, oldest first.
    std::string decode_lane(std::size_t i) const;

    /// All lanes merged into one transcript ordered by (timestamp, lane
    /// id, per-lane order) — deterministic at any shard or thread count.
    std::string merged() const;

    std::uint64_t total_records() const noexcept;
    /// Records lost to ring wrap across all lanes (reported, never silent).
    std::uint64_t total_overwritten() const noexcept;

private:
    struct Lane {
        std::string name;
        RecorderLane ring;
        Lane(std::string n, std::size_t cap) : name(std::move(n)), ring(cap) {}
    };

    std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace catenet::telemetry
