// The unit the link layer carries: a byte buffer (a serialized IP datagram
// or VC frame) plus simulation bookkeeping. The bookkeeping fields never
// travel "on the wire" conceptually — they are what a real node would
// compute locally (enqueue timestamps) or what the tracing harness needs
// (unique ids); protocol behaviour depends only on `bytes`.
#pragma once

#include <cstdint>
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

}  // namespace catenet::link
