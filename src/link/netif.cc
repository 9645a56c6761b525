#include "link/netif.h"

#include <cstring>

#include "util/checksum.h"

// The GSO late split (DESIGN.md §12): generic byte surgery over a 40-byte
// [IPv4|TCP] header template plus ring views. Deliberately placed in the
// link layer with no ip/ or tcp/ dependency — the split advances raw
// per-segment fields (IP id/length, TCP seq/flags) and re-derives both
// checksums; it needs no protocol object model, exactly like a NIC's TSO
// engine works from descriptor fields, not from the host stack's structs.
namespace catenet::link {

namespace {

inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_u16(std::uint8_t* p, std::uint16_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v & 0xff);
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v & 0xff);
}

}  // namespace

Packet gso_split_segment(const GsoDescriptor& d, std::size_t i) {
    const std::size_t off = i * d.seg_payload;
    const bool last = (i + 1 == d.seg_count);
    const std::size_t len =
        last ? d.payload_size() - off : d.seg_payload;
    const std::size_t total = 40 + len;

    util::ByteBuffer out = d.sim->buffer_pool().acquire(total);
    // Same sizing discipline as encode_tcp_segment: never resize() over the
    // payload region, so vector value-initialization stays off the hot path.
    out.resize(40);
    std::uint8_t* p = out.data();
    std::memcpy(p, d.proto.data(), 40);

    // IPv4: advance identification by i and set this segment's total
    // length. The template checksum already covers a full-sized segment
    // (write_ipv4_header computed it for id+0, 40 + seg_payload), so each
    // changed word is patched incrementally per RFC 1624 — bit-identical
    // to the full 20-byte refold, at two word swaps instead.
    std::uint16_t ipck = load_u16(p + 10);
    if (i != 0) {
        const std::uint16_t id = load_u16(p + 4);
        const auto nid = static_cast<std::uint16_t>(id + i);
        store_u16(p + 4, nid);
        ipck = util::checksum_update_u16(ipck, id, nid);
    }
    if (const std::uint16_t tpl_total = load_u16(p + 2); tpl_total != total) {
        store_u16(p + 2, static_cast<std::uint16_t>(total));
        ipck = util::checksum_update_u16(ipck, tpl_total,
                                         static_cast<std::uint16_t>(total));
    }
    store_u16(p + 10, ipck);

    // TCP: advance the sequence number by the payload already covered; the
    // final segment may add flag bits (PSH). The checksum field is zeroed
    // here and folded below over the pseudo-header and the assembled
    // [header|payload], exactly as encode_tcp_segment computes it.
    store_u32(p + 24, static_cast<std::uint32_t>(load_u32(p + 24) + off));
    if (last) p[33] |= d.last_flags_or;
    store_u16(p + 36, 0);

    // Append this segment's payload sub-range, spanning the a/b ring views
    // as needed (same no-value-init insert discipline as the encoder).
    if (off < d.payload_a.size()) {
        const std::size_t run = std::min(len, d.payload_a.size() - off);
        out.insert(out.end(), d.payload_a.begin() + static_cast<std::ptrdiff_t>(off),
                   d.payload_a.begin() + static_cast<std::ptrdiff_t>(off + run));
        if (run < len) {
            out.insert(out.end(), d.payload_b.begin(),
                       d.payload_b.begin() + static_cast<std::ptrdiff_t>(len - run));
        }
    } else {
        const std::size_t boff = off - d.payload_a.size();
        out.insert(out.end(), d.payload_b.begin() + static_cast<std::ptrdiff_t>(boff),
                   d.payload_b.begin() + static_cast<std::ptrdiff_t>(boff + len));
    }
    p = out.data();  // the payload inserts may have moved the buffer
    util::ChecksumAccumulator acc;
    acc.add_u32(load_u32(p + 12));                         // pseudo: src
    acc.add_u32(load_u32(p + 16));                         // pseudo: dst
    acc.add_u16(p[9]);                                     // pseudo: protocol
    acc.add_u16(static_cast<std::uint16_t>(total - 20));   // pseudo: TCP length
    acc.add({p + 20, total - 20});
    store_u16(p + 36, acc.finish());
    Packet packet = make_packet(std::move(out), *d.sim);
    packet.csum_ok = true;  // both checksums were just computed
    return packet;
}

void NetIf::send_gso(const GsoDescriptor& d, util::Ipv4Address next_hop) {
    for (std::size_t i = 0; i < d.seg_count; ++i) {
        send(gso_split_segment(d, i), next_hop);
    }
}

}  // namespace catenet::link
