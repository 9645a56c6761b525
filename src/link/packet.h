// The unit the link layer carries: a byte buffer (a serialized IP datagram
// or VC frame) and the checksum-offload vouch for those bytes. Protocol
// behaviour depends only on `bytes`: a datagram is self-contained, and the
// accounting tools (counters, flight recorder) watch packets from the
// outside rather than ride inside them. Every queue slot and in-flight
// delivery event holds one Packet, so it stays at 32 bytes.
#pragma once

#include <cstddef>

#include "util/byte_buffer.h"

namespace catenet::link {

struct Packet {
    util::ByteBuffer bytes;

    /// Checksum offload (DESIGN.md §12): set by an encoder that just
    /// computed this buffer's IP and transport checksums, cleared the
    /// moment a link corrupts the bytes. Receivers may skip checksum
    /// *verification* when set — behaviourally identical, since the flag
    /// implies verification would succeed. It never travels on the wire
    /// conceptually; it stands in for the hardware offload bit a real NIC
    /// descriptor carries.
    bool csum_ok = false;

    std::size_t size() const noexcept { return bytes.size(); }
};

}  // namespace catenet::link
