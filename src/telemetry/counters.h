// Fixed-slot counter registry, the per-node half of the telemetry design
// (goals 4 and 7: distributed management and accountability — the two the
// paper concedes the architecture served worst, for want of exactly this
// instrumentation).
//
// Every node owns one CounterBlock: a flat array indexed by the Counter
// enum. An increment is a single unsynchronized store into memory the
// owning shard thread alone writes — the same single-writer discipline as
// util::RunningStats — so the hot path pays one add, no atomics, no
// allocation, no branches. Blocks merge by element-wise addition after the
// shards join; names are resolved only at report time.
//
// The block is the *only* storage for per-layer accounting: the legacy
// stats structs (ip::IpStats, the TCP stack totals' IP half, ...) that
// mirror counter slots are synthesized from it on demand, so an event is
// counted once, not once per view. Counters therefore stay live under
// -DCATENET_NO_TELEMETRY, which compiles out only the additive
// observation machinery (flight-recorder appends and the note() bodies);
// that is the delta the A/B overhead gate (`verify-telemetry`) bounds.
#pragma once

#include <array>
#include <cstdint>

#include "telemetry/drop_reason.h"

namespace catenet::telemetry {

/// Every hot-path counter in the system, all layers, one namespace.
/// Append only — slot order is the registry's wire order and the JSON
/// report's emission order.
enum class Counter : std::uint16_t {
    // --- internet layer ---------------------------------------------------
    IpTx,             ///< datagrams originated locally
    IpRx,             ///< datagrams arrived from a network
    IpFwd,            ///< datagrams forwarded toward the next hop
    IpDeliver,        ///< datagrams handed to a local protocol
    IpDropChecksum,
    IpDropMalformed,
    IpDropNoRoute,
    IpDropTtlExpired,
    IpDropIfaceDown,
    IpDropNotForUs,
    IpDropReassemblyTimeout,
    IpFragsCreated,
    IpIcmpErrorsSent,
    IpSourceQuenchSent,
    IpRouteCacheHit,  ///< destination cache served the lookup
    IpRouteCacheMiss, ///< full longest-prefix match was required
    // --- transport: TCP ---------------------------------------------------
    TcpSegsIn,
    TcpSegsOut,
    TcpRetransSegs,
    TcpRtos,
    TcpDupAcks,
    TcpFastRetransmits,
    TcpZeroWindowEvents,  ///< sender stalls on a closed peer window
    // Nothing increments these two slots: every segment takes the one
    // RFC 793 receive path, and there is no header prediction (DESIGN.md
    // §7). They are kept only because perfbench's tcp.pred.share reads them.
    TcpPredAcks,
    TcpPredData,
    TcpDropChecksum,
    TcpDropNoConnection,
    TcpResetsSent,
    TcpConnsOpened,
    TcpConnsAccepted,
    // --- transport: UDP ---------------------------------------------------
    UdpTx,
    UdpRx,
    UdpDropChecksum,
    UdpDropNoSocket,
    // --- segmentation offload (appended: slot order is wire order) --------
    // Nothing increments these three slots: TCP sends one segment at a time
    // and the receive side coalesces no runs (DESIGN.md §12). They are kept
    // only because perfbench's tcp.gso.segs_per_build and tcp.gro.share
    // metrics and its digest mask read them.
    TcpGsoBuilds,
    TcpGsoSegs,
    TcpGroSegs,
    kCount,
};

/// True for the retired offload slots that perfbench's digest masks.
constexpr bool offload_diagnostic(Counter c) noexcept {
    return c == Counter::TcpGsoBuilds || c == Counter::TcpGsoSegs ||
           c == Counter::TcpGroSegs;
}

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// MIB-style dotted name per slot. Drop counters end in the shared
/// DropReason spelling (asserted by test) so the flight recorder's drop
/// records and the counters can never disagree about what a reason is
/// called.
constexpr const char* counter_name(Counter c) noexcept {
    switch (c) {
        case Counter::IpTx: return "ip.tx";
        case Counter::IpRx: return "ip.rx";
        case Counter::IpFwd: return "ip.fwd";
        case Counter::IpDeliver: return "ip.deliver";
        case Counter::IpDropChecksum: return "ip.drop.checksum";
        case Counter::IpDropMalformed: return "ip.drop.malformed";
        case Counter::IpDropNoRoute: return "ip.drop.no_route";
        case Counter::IpDropTtlExpired: return "ip.drop.ttl_expired";
        case Counter::IpDropIfaceDown: return "ip.drop.iface_down";
        case Counter::IpDropNotForUs: return "ip.drop.not_for_us";
        case Counter::IpDropReassemblyTimeout: return "ip.drop.reassembly_timeout";
        case Counter::IpFragsCreated: return "ip.frags_created";
        case Counter::IpIcmpErrorsSent: return "ip.icmp_errors_sent";
        case Counter::IpSourceQuenchSent: return "ip.source_quench_sent";
        case Counter::IpRouteCacheHit: return "ip.route_cache.hit";
        case Counter::IpRouteCacheMiss: return "ip.route_cache.miss";
        case Counter::TcpSegsIn: return "tcp.segs_in";
        case Counter::TcpSegsOut: return "tcp.segs_out";
        case Counter::TcpRetransSegs: return "tcp.retrans_segs";
        case Counter::TcpRtos: return "tcp.rtos";
        case Counter::TcpDupAcks: return "tcp.dup_acks";
        case Counter::TcpFastRetransmits: return "tcp.fast_retransmits";
        case Counter::TcpZeroWindowEvents: return "tcp.zero_window_events";
        case Counter::TcpPredAcks: return "tcp.pred.acks";
        case Counter::TcpPredData: return "tcp.pred.data";
        case Counter::TcpDropChecksum: return "tcp.drop.checksum";
        case Counter::TcpDropNoConnection: return "tcp.drop.no_connection";
        case Counter::TcpResetsSent: return "tcp.resets_sent";
        case Counter::TcpConnsOpened: return "tcp.conns_opened";
        case Counter::TcpConnsAccepted: return "tcp.conns_accepted";
        case Counter::UdpTx: return "udp.tx";
        case Counter::UdpRx: return "udp.rx";
        case Counter::UdpDropChecksum: return "udp.drop.checksum";
        case Counter::UdpDropNoSocket: return "udp.drop.no_socket";
        case Counter::TcpGsoBuilds: return "tcp.gso_builds";
        case Counter::TcpGsoSegs: return "tcp.gso_segs";
        case Counter::TcpGroSegs: return "tcp.gro_segs";
        case Counter::kCount: break;
    }
    return "?";
}

/// The IP-layer drop counter a reason maps to. Compile-time total: adding
/// a DropReason without a counter slot fails to build the switch.
constexpr Counter drop_counter(DropReason r) noexcept {
    switch (r) {
        case DropReason::Checksum: return Counter::IpDropChecksum;
        case DropReason::Malformed: return Counter::IpDropMalformed;
        case DropReason::NoRoute: return Counter::IpDropNoRoute;
        case DropReason::TtlExpired: return Counter::IpDropTtlExpired;
        case DropReason::IfaceDown: return Counter::IpDropIfaceDown;
        case DropReason::NotForUs: return Counter::IpDropNotForUs;
        case DropReason::ReassemblyTimeout: return Counter::IpDropReassemblyTimeout;
        case DropReason::None:
        case DropReason::kCount: break;
    }
    return Counter::kCount;
}

/// One node's counters: a flat slab of slots. Single writer (the shard
/// thread that owns the node); readers wait for quiescence, exactly like
/// RunningStats and the flight recorder's lanes.
struct CounterBlock {
    std::array<std::uint64_t, kCounterCount> slots{};

    void inc(Counter c) noexcept { ++slots[static_cast<std::size_t>(c)]; }
    void add(Counter c, std::uint64_t n) noexcept {
        slots[static_cast<std::size_t>(c)] += n;
    }

    std::uint64_t get(Counter c) const noexcept {
        return slots[static_cast<std::size_t>(c)];
    }

    /// Element-wise fold, the shard-merge operation. Commutative and
    /// associative, so merge order across shards cannot matter.
    void merge(const CounterBlock& other) noexcept {
        for (std::size_t i = 0; i < kCounterCount; ++i) slots[i] += other.slots[i];
    }

    bool operator==(const CounterBlock&) const = default;
};

}  // namespace catenet::telemetry
