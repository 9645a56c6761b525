// RFC 791 IPv4 header, encoded to and decoded from real wire format with a
// real header checksum. Options are not generated; received options are
// skipped per the IHL field.
#pragma once

#include <cstdint>
#include <span>

#include "util/buffer_pool.h"
#include "util/byte_buffer.h"
#include "util/ip_address.h"

namespace catenet::ip {

/// Fixed header size without options.
inline constexpr std::size_t kIpv4HeaderSize = 20;

/// Maximum datagram the architecture promises to carry end to end without
/// fragmentation (RFC 791's 576-octet guarantee).
inline constexpr std::size_t kMinReassemblyBuffer = 576;

struct Ipv4Header {
    // version is implicitly 4; ihl is derived from options (none here).
    std::uint8_t tos = 0;
    std::uint16_t total_length = 0;  ///< header + payload, filled by encode
    std::uint16_t identification = 0;
    bool dont_fragment = false;
    bool more_fragments = false;
    std::uint16_t fragment_offset = 0;  ///< in 8-octet units
    std::uint8_t ttl = 64;
    std::uint8_t protocol = 0;
    util::Ipv4Address src;
    util::Ipv4Address dst;

    bool is_fragment() const noexcept { return more_fragments || fragment_offset != 0; }

    /// Byte offset of this fragment's payload within the original datagram.
    std::size_t payload_offset_bytes() const noexcept {
        return std::size_t{fragment_offset} * 8;
    }
};

/// Serializes header + payload into a wire-format datagram. Computes
/// total_length and the header checksum.
util::ByteBuffer encode_datagram(const Ipv4Header& header,
                                 std::span<const std::uint8_t> payload);

/// Pool-recycling variant: identical output bytes, but the wire buffer's
/// capacity comes from (and should eventually return to) `pool`. The hot
/// host-side send path — forwarding never encodes at all.
util::ByteBuffer encode_datagram(const Ipv4Header& header,
                                 std::span<const std::uint8_t> payload,
                                 util::BufferPool& pool);

/// Writes the 20-byte fixed header (version/IHL, lengths, checksum) for a
/// datagram of `total_length` bytes into the first kIpv4HeaderSize bytes of
/// `out`. This is the in-place half of the headroom send path: a transport
/// that laid out [headroom][segment] gets its IP header stored directly
/// over the headroom, byte-identical to encode_datagram's output.
/// Precondition: out.size() >= kIpv4HeaderSize, total_length <= 65535.
void write_ipv4_header(std::span<std::uint8_t> out, const Ipv4Header& header,
                       std::size_t total_length);

/// The gateway's entire per-hop datagram rewrite, applied in place to a
/// validated wire buffer: decrements TTL and patches the header checksum
/// incrementally (RFC 1624). Produces bytes identical to re-serializing
/// the decoded header with ttl-1 — see the fast-path property tests.
/// Precondition: `wire` holds at least a full header and ttl >= 1.
void decrement_ttl(std::span<std::uint8_t> wire);

struct DecodedDatagram {
    Ipv4Header header;
    std::size_t header_length = 0;  ///< bytes, including options
    std::size_t payload_offset = 0;
    std::size_t payload_length = 0;
};

/// Parses and validates a wire-format datagram. Throws util::DecodeError
/// on malformed input; returns false (no throw) when only the header
/// checksum fails — the usual "corrupted in flight" case callers count.
bool decode_datagram(std::span<const std::uint8_t> wire, DecodedDatagram& out);

/// Checksum-offload variant: `verify_checksum = false` skips the header
/// checksum fold, for packets whose link::Packet::csum_ok flag vouches
/// that the encoder-computed checksum is untouched (behaviourally
/// identical — the flag implies the fold would pass). Structural
/// validation is unchanged.
bool decode_datagram(std::span<const std::uint8_t> wire, DecodedDatagram& out,
                     bool verify_checksum);

/// Payload view into a wire buffer previously decoded.
inline std::span<const std::uint8_t> payload_of(std::span<const std::uint8_t> wire,
                                                const DecodedDatagram& d) {
    return wire.subspan(d.payload_offset, d.payload_length);
}

}  // namespace catenet::ip
