// The unit the link layer carries: a byte buffer (a serialized IP datagram
// or VC frame) plus simulation bookkeeping. The bookkeeping fields never
// travel "on the wire" conceptually — they are what a real node would
// compute locally (enqueue timestamps) or what the tracing harness needs
// (unique ids); protocol behaviour depends only on `bytes`.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"
#include "util/byte_buffer.h"

namespace catenet::link {

struct Packet {
    util::ByteBuffer bytes;

    /// Per-simulation trace id, assigned at creation. Drawn from the
    /// owning Simulator's uid counter, so ids are reproducible run-to-run
    /// and across scenarios running in the same process (no global state).
    std::uint64_t uid = 0;

    /// When the packet was created (for end-to-end latency measurement).
    sim::Time created;

    /// When the packet was last enqueued (for queueing-delay measurement).
    sim::Time enqueued;

    /// Checksum offload (DESIGN.md §12): set by an encoder that just
    /// computed this buffer's IP and transport checksums, cleared the
    /// moment a link corrupts the bytes. Receivers may skip checksum
    /// *verification* when set — behaviourally identical, since the flag
    /// implies verification would succeed. Like `uid` and the timestamps,
    /// it never travels on the wire conceptually; it stands in for the
    /// hardware offload bit a real NIC descriptor carries.
    bool csum_ok = false;

    std::size_t size() const noexcept { return bytes.size(); }
};

inline Packet make_packet(util::ByteBuffer bytes, sim::Simulator& sim) {
    Packet p;
    p.bytes = std::move(bytes);
    p.uid = sim.next_uid();
    p.created = sim.now();
    p.enqueued = sim.now();
    return p;
}

/// Most MSS-spans one mega-segment descriptor may cover (GSO, DESIGN.md
/// §12). 16 splits amortize the per-train fixed costs well past the knee
/// while keeping a split's working set (16 wire buffers) pool-sized.
inline constexpr std::size_t kGsoSegs = 16;

/// One TCP mega-segment: a train of equally-sized wire segments described
/// by a single 40-byte header template plus views into the sender's ring.
/// The egress link performs the late split — stamping per-segment headers
/// and checksums into pooled buffers byte-identical to the per-segment
/// encode. The descriptor lives on the build/send call stack only; the
/// ring views stay valid because the whole build → split → admit chain is
/// synchronous within one event.
///
/// Per-segment variation is confined to: IP total_length (last segment),
/// IP identification (+i), TCP sequence (+i·seg_payload), TCP flags on the
/// last segment (`last_flags_or`, e.g. PSH), and both checksums. Every
/// other header field is constant across the train by construction — the
/// TCP sender never interleaves state changes inside one build.
struct GsoDescriptor {
    /// Wire-segment 0's [IPv4 | TCP] header image, checksums already
    /// correct for a `seg_payload`-sized segment. Data segments never
    /// carry TCP options, so both headers are their fixed 20 bytes.
    std::array<std::uint8_t, 40> proto;

    /// The train's payload in send order; `payload_b` is non-empty only
    /// when the range straddles the send ring's physical wrap.
    std::span<const std::uint8_t> payload_a;
    std::span<const std::uint8_t> payload_b;

    std::size_t seg_payload = 0;  ///< payload bytes per wire segment
    std::size_t seg_count = 0;    ///< number of wire segments (>= 2)
    std::uint8_t last_flags_or = 0;  ///< TCP flag bits OR'd into the final segment

    /// The owning simulator: the split draws packet uids and timestamps
    /// from it, exactly as the per-segment path's make_packet would.
    sim::Simulator* sim = nullptr;

    std::size_t payload_size() const noexcept {
        return payload_a.size() + payload_b.size();
    }
};

/// Stamps wire segment `i` of the train: header template copied, the
/// per-segment fields advanced, RFC 1071 run over each span, payload
/// copied from the ring views — byte-identical to the one-pass encode the
/// per-segment path performs, with `csum_ok` set (this encoder just
/// computed both checksums). Buffers come from the simulator's pool.
Packet gso_split_segment(const GsoDescriptor& d, std::size_t i);

}  // namespace catenet::link
