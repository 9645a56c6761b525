#include "ip/ipv4_header.h"

#include <cstring>
#include <stdexcept>

#include "util/checksum.h"

namespace catenet::ip {

namespace {

// Writes the full wire image into `out` (resized to fit). Shared by the
// fresh-allocation and pool-recycling entry points; every byte of `out` is
// stored, so a recycled buffer's previous contents can never leak through.
void write_datagram(util::ByteBuffer& out, const Ipv4Header& header,
                    std::span<const std::uint8_t> payload) {
    const auto total = kIpv4HeaderSize + payload.size();
    out.resize(total);
    write_ipv4_header(out, header, total);
    if (!payload.empty()) {
        std::memcpy(out.data() + kIpv4HeaderSize, payload.data(), payload.size());
    }
}

}  // namespace

void write_ipv4_header(std::span<std::uint8_t> out, const Ipv4Header& header,
                       std::size_t total_length) {
    if (total_length > 0xffff) {
        throw std::length_error("IPv4 datagram exceeds 65535 bytes");
    }
    std::uint8_t* p = out.data();
    p[0] = 0x45;  // version 4, IHL 5 words
    p[1] = header.tos;
    util::store_be16(p + 2, static_cast<std::uint16_t>(total_length));
    util::store_be16(p + 4, header.identification);
    std::uint16_t frag = header.fragment_offset & 0x1fff;
    if (header.dont_fragment) frag |= 0x4000;
    if (header.more_fragments) frag |= 0x2000;
    util::store_be16(p + 6, frag);
    p[8] = header.ttl;
    p[9] = header.protocol;
    util::store_be16(p + 10, 0);  // checksum placeholder
    util::store_be32(p + 12, header.src.value());
    util::store_be32(p + 16, header.dst.value());
    util::store_be16(p + 10, util::internet_checksum({p, kIpv4HeaderSize}));
}

util::ByteBuffer encode_datagram(const Ipv4Header& header,
                                 std::span<const std::uint8_t> payload) {
    util::ByteBuffer out;
    out.reserve(kIpv4HeaderSize + payload.size());
    write_datagram(out, header, payload);
    return out;
}

util::ByteBuffer encode_datagram(const Ipv4Header& header,
                                 std::span<const std::uint8_t> payload,
                                 util::BufferPool& pool) {
    util::ByteBuffer out = pool.acquire(kIpv4HeaderSize + payload.size());
    write_datagram(out, header, payload);
    return out;
}

bool decode_datagram(std::span<const std::uint8_t> wire, DecodedDatagram& out) {
    return decode_datagram(wire, out, true);
}

bool decode_datagram(std::span<const std::uint8_t> wire, DecodedDatagram& out,
                     bool verify_checksum) {
    // Hot path of every gateway hop: the fixed header is read with direct
    // loads (all offsets proven in range by the IHL check) instead of a
    // bounds-checked cursor. Validation order and outcomes match the
    // original cursor-based decoder exactly.
    if (wire.empty()) {
        throw util::DecodeError("truncated datagram");
    }
    const std::uint8_t* p = wire.data();
    const std::uint8_t version_ihl = p[0];
    if ((version_ihl >> 4) != 4) {
        throw util::DecodeError("not an IPv4 datagram");
    }
    const auto header_len = static_cast<std::size_t>(version_ihl & 0x0f) * 4;
    if (header_len < kIpv4HeaderSize || header_len > wire.size()) {
        throw util::DecodeError("bad IHL");
    }
    Ipv4Header& h = out.header;
    h.tos = p[1];
    h.total_length = util::load_be16(p + 2);
    if (h.total_length < header_len || h.total_length > wire.size()) {
        throw util::DecodeError("bad total length");
    }
    h.identification = util::load_be16(p + 4);
    const std::uint16_t frag = util::load_be16(p + 6);
    h.dont_fragment = (frag & 0x4000) != 0;
    h.more_fragments = (frag & 0x2000) != 0;
    h.fragment_offset = frag & 0x1fff;
    h.ttl = p[8];
    h.protocol = p[9];
    h.src = util::Ipv4Address(util::load_be32(p + 12));
    h.dst = util::Ipv4Address(util::load_be32(p + 16));

    out.header_length = header_len;
    out.payload_offset = header_len;
    out.payload_length = h.total_length - header_len;

    return !verify_checksum || util::checksum_valid(wire.subspan(0, header_len));
}

void decrement_ttl(std::span<std::uint8_t> wire) {
    std::uint8_t* p = wire.data();
    // TTL shares a 16-bit checksum word with the protocol field; ttl-1 in
    // the high byte is a -0x0100 word delta the checksum absorbs without
    // re-reading the other nine words.
    const std::uint16_t old_word = util::load_be16(p + 8);
    p[8] = static_cast<std::uint8_t>(p[8] - 1);
    const std::uint16_t new_word = util::load_be16(p + 8);
    util::store_be16(p + 10,
                     util::checksum_update_u16(util::load_be16(p + 10), old_word, new_word));
}

}  // namespace catenet::ip
