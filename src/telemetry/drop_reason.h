// The single vocabulary for "why was this datagram discarded". The IP
// stack's drop counters, the flight recorder's drop records, and the
// MIB-style counter names all derive from this one enum, so a reason can
// never be spelled two ways in two subsystems (the ad-hoc string literals
// this replaces had exactly that failure mode).
//
// Header-only and dependency-free: the IP layer includes it on its hot
// path without creating a link-level dependency on the telemetry library.
#pragma once

#include <cstdint>

namespace catenet::telemetry {

enum class DropReason : std::uint8_t {
    None = 0,  ///< not a drop (tx/rx/deliver/fwd records)
    Checksum,
    Malformed,
    NoRoute,
    TtlExpired,
    IfaceDown,
    NotForUs,
    ReassemblyTimeout,
    FragNeeded,  ///< too big for the egress MTU, and DF forbids fragmenting
    kCount,
};

inline constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kCount);

/// Stable wire/name spelling, shared by counter names and decoded traces.
constexpr const char* to_string(DropReason r) noexcept {
    switch (r) {
        case DropReason::None: return "none";
        case DropReason::Checksum: return "checksum";
        case DropReason::Malformed: return "malformed";
        case DropReason::NoRoute: return "no_route";
        case DropReason::TtlExpired: return "ttl_expired";
        case DropReason::IfaceDown: return "iface_down";
        case DropReason::NotForUs: return "not_for_us";
        case DropReason::ReassemblyTimeout: return "reassembly_timeout";
        case DropReason::FragNeeded: return "frag_needed";
        case DropReason::kCount: break;
    }
    return "?";
}

}  // namespace catenet::telemetry
