// RFC 793 TCP segment header with the MSS option (kind 2), encoded in real
// wire format with the pseudo-header checksum.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/buffer_pool.h"
#include "util/byte_buffer.h"
#include "util/ip_address.h"

namespace catenet::tcp {

inline constexpr std::size_t kTcpHeaderSize = 20;

struct TcpFlags {
    bool fin = false;
    bool syn = false;
    bool rst = false;
    bool psh = false;
    bool ack = false;
    bool urg = false;
};

struct TcpHeader {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    TcpFlags flags;
    std::uint16_t window = 0;
    std::uint16_t urgent_pointer = 0;
    /// Maximum segment size option; carried on SYN segments only.
    std::optional<std::uint16_t> mss;
};

/// Serializes header + payload with checksum over the pseudo-header.
util::ByteBuffer encode_tcp(const TcpHeader& header, util::Ipv4Address src,
                            util::Ipv4Address dst, std::span<const std::uint8_t> payload);

/// The data-path encoder: emits [IPv4 headroom][TCP header(+MSS)][payload]
/// into a pool buffer, gathering the payload from up to two spans (a ring
/// buffer's wrap split). The first `headroom` bytes are reserved,
/// uninitialized, for the IP layer to fill in place — see
/// ip::IpStack::send_with_headroom. Wire bytes from offset `headroom` are
/// identical to encode_tcp's output for the concatenated payload.
util::ByteBuffer encode_tcp_segment(const TcpHeader& header, util::Ipv4Address src,
                                    util::Ipv4Address dst,
                                    std::span<const std::uint8_t> payload_a,
                                    std::span<const std::uint8_t> payload_b,
                                    std::size_t headroom, util::BufferPool& pool);

/// Decodes and checksum-verifies a segment. Returns nullopt on checksum
/// failure; throws util::DecodeError when structurally malformed.
std::optional<TcpHeader> decode_tcp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out);

/// Checksum-offload variant: `verify_checksum = false` skips the RFC 1071
/// pass, for segments whose link::Packet::csum_ok flag vouches that the
/// encoder-computed checksum is untouched. Identical results otherwise.
std::optional<TcpHeader> decode_tcp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out,
                                    bool verify_checksum);

}  // namespace catenet::tcp
