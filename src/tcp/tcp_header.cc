#include "tcp/tcp_header.h"

#include <cstring>

#include "ip/protocols.h"
#include "util/checksum.h"

namespace catenet::tcp {

namespace {

// Stores the fixed header fields (checksum left zero) at `p`. Shared by
// both encoders so their wire bytes cannot drift apart.
void write_header_fields(std::uint8_t* p, std::size_t header_len, const TcpHeader& header) {
    util::store_be16(p, header.src_port);
    util::store_be16(p + 2, header.dst_port);
    util::store_be32(p + 4, header.seq);
    util::store_be32(p + 8, header.ack);
    p[12] = static_cast<std::uint8_t>((header_len / 4) << 4);
    std::uint8_t flags = 0;
    if (header.flags.fin) flags |= 0x01;
    if (header.flags.syn) flags |= 0x02;
    if (header.flags.rst) flags |= 0x04;
    if (header.flags.psh) flags |= 0x08;
    if (header.flags.ack) flags |= 0x10;
    if (header.flags.urg) flags |= 0x20;
    p[13] = flags;
    util::store_be16(p + 14, header.window);
    util::store_be16(p + 16, 0);  // checksum placeholder
    util::store_be16(p + 18, header.urgent_pointer);
    if (header.mss) {
        p[20] = 2;  // kind: MSS
        p[21] = 4;  // length
        util::store_be16(p + 22, *header.mss);
    }
}

// Computes the checksum over the assembled segment [header|payload] at `p`
// in one contiguous RFC 1071 pass (pseudo-header folded in) and patches it
// into the header. Because the payload already sits behind the header, span
// chunking never hits the odd-length-chunk restriction no matter where the
// ring wrapped.
void patch_checksum(std::uint8_t* p, std::size_t total, util::Ipv4Address src,
                    util::Ipv4Address dst) {
    util::store_be16(p + 16, util::transport_checksum(src, dst, ip::kProtoTcp, {p, total}));
}

// Writes header + gathered payload at `p` (which must have room for
// header_len + payload bytes) and patches the checksum in.
void write_segment(std::uint8_t* p, std::size_t header_len, const TcpHeader& header,
                   util::Ipv4Address src, util::Ipv4Address dst,
                   std::span<const std::uint8_t> payload_a,
                   std::span<const std::uint8_t> payload_b) {
    write_header_fields(p, header_len, header);
    std::uint8_t* data = p + header_len;
    if (!payload_a.empty()) {
        std::memcpy(data, payload_a.data(), payload_a.size());
        data += payload_a.size();
    }
    if (!payload_b.empty()) {
        std::memcpy(data, payload_b.data(), payload_b.size());
        data += payload_b.size();
    }
    patch_checksum(p, static_cast<std::size_t>(data - p), src, dst);
}

}  // namespace

util::ByteBuffer encode_tcp(const TcpHeader& header, util::Ipv4Address src,
                            util::Ipv4Address dst, std::span<const std::uint8_t> payload) {
    const std::size_t header_len = kTcpHeaderSize + (header.mss ? 4 : 0);
    util::ByteBuffer out(header_len + payload.size());
    write_segment(out.data(), header_len, header, src, dst, payload, {});
    return out;
}

util::ByteBuffer encode_tcp_segment(const TcpHeader& header, util::Ipv4Address src,
                                    util::Ipv4Address dst,
                                    std::span<const std::uint8_t> payload_a,
                                    std::span<const std::uint8_t> payload_b,
                                    std::size_t headroom, util::BufferPool& pool) {
    const std::size_t header_len = kTcpHeaderSize + (header.mss ? 4 : 0);
    const std::size_t total =
        headroom + header_len + payload_a.size() + payload_b.size();
    util::ByteBuffer out = pool.acquire(total);
    // Sizing to headroom+header and appending the payload spans keeps
    // vector::resize's value-initialization off the payload bytes — a full
    // extra pass over every segment that the memcpy below makes redundant.
    // The headroom bytes stay unwritten here; send_with_headroom stores the
    // full IPv4 header over them before anything reads the buffer.
    out.resize(headroom + header_len);
    out.insert(out.end(), payload_a.begin(), payload_a.end());
    out.insert(out.end(), payload_b.begin(), payload_b.end());
    write_header_fields(out.data() + headroom, header_len, header);
    patch_checksum(out.data() + headroom, total - headroom, src, dst);
    return out;
}

std::optional<TcpHeader> decode_tcp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out) {
    return decode_tcp(src, dst, segment, payload_out, true);
}

std::optional<TcpHeader> decode_tcp(util::Ipv4Address src, util::Ipv4Address dst,
                                    std::span<const std::uint8_t> segment,
                                    std::span<const std::uint8_t>& payload_out,
                                    bool verify_checksum) {
    // Checksum first (over whatever arrived, same as the seed decoder): a
    // corrupted length field must not turn "corrupt" into "malformed".
    if (verify_checksum &&
        util::transport_checksum(src, dst, ip::kProtoTcp, segment) != 0) {
        return std::nullopt;
    }
    // Direct loads, every offset proven in range: the fixed header by the
    // size check, options by the option-length checks below.
    if (segment.size() < kTcpHeaderSize) {
        throw util::DecodeError("truncated TCP header");
    }
    const std::uint8_t* p = segment.data();
    TcpHeader h;
    h.src_port = util::load_be16(p);
    h.dst_port = util::load_be16(p + 2);
    h.seq = util::load_be32(p + 4);
    h.ack = util::load_be32(p + 8);
    const std::size_t header_len = std::size_t{static_cast<std::uint8_t>(p[12] >> 4)} * 4;
    if (header_len < kTcpHeaderSize || header_len > segment.size()) {
        throw util::DecodeError("bad TCP data offset");
    }
    const std::uint8_t flags = p[13];
    h.flags.fin = (flags & 0x01) != 0;
    h.flags.syn = (flags & 0x02) != 0;
    h.flags.rst = (flags & 0x04) != 0;
    h.flags.psh = (flags & 0x08) != 0;
    h.flags.ack = (flags & 0x10) != 0;
    h.flags.urg = (flags & 0x20) != 0;
    h.window = util::load_be16(p + 14);
    // p[16..18): checksum, already validated above.
    h.urgent_pointer = util::load_be16(p + 18);

    // Parse options up to the data offset.
    std::size_t pos = kTcpHeaderSize;
    while (pos < header_len) {
        const std::uint8_t kind = p[pos++];
        if (kind == 0) break;      // end of options
        if (kind == 1) continue;   // no-op padding
        if (pos >= header_len) {
            throw util::DecodeError("bad TCP option length");
        }
        const std::uint8_t len = p[pos++];
        if (len < 2 || pos + (len - 2) > header_len) {
            throw util::DecodeError("bad TCP option length");
        }
        if (kind == 2 && len == 4) {
            h.mss = util::load_be16(p + pos);
        }
        pos += len - 2;
    }
    payload_out = segment.subspan(header_len);
    return h;
}

}  // namespace catenet::tcp
