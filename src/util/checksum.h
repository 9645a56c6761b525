// The Internet checksum (RFC 1071): 16-bit one's-complement sum of
// one's-complement 16-bit words. Used by the IPv4 header, ICMP, UDP and
// TCP codecs. Implemented exactly as specified so that bit-flip corruption
// injected by the link layer is genuinely detected (or, for unlucky flips,
// genuinely missed — the same blind spots real networks have).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/ip_address.h"

namespace catenet::util {

/// Incremental one's-complement sum. Feed any number of byte ranges, then
/// call `finish()` for the checksum value to place in the packet.
/// Defined inline: every forwarded datagram sums its header on receive and
/// every encode sums it on send, so the common 20-byte case must compile
/// to straight-line code at the call site.
class ChecksumAccumulator {
public:
    /// Adds a byte range. Ranges may be fed in any chunking as long as each
    /// chunk except the last has even length (standard RFC 1071 property).
    void add(std::span<const std::uint8_t> bytes) {
        // Two RFC 1071 techniques combined, because this loop is the single
        // hottest code in the TCP data path (one full pass per segment per
        // direction):
        //
        // §2(B) byte-order independence: the one's-complement sum is
        // preserved under byte swapping — swap16(a +' b) = swap16(a) +'
        // swap16(b), since a byte swap is a rotation and the end-around
        // carry makes one's-complement addition rotation-invariant. So the
        // bulk loop loads 64-bit words in NATIVE order (no per-word bswap),
        // and the folded 16-bit subtotal is swapped once at the end.
        //
        // §2(A) deferred carries, wider than 16 bits: 64-bit words are
        // summed into independent accumulators with explicit end-around
        // carry (2^64 ≡ 1 mod 2^16-1, so a wrapped carry re-enters at bit
        // 0). Four parallel chains break the loop-carried dependency, so
        // the loop retires 32 bytes per iteration at roughly one add per
        // cycle per chain.
        const std::uint8_t* p = bytes.data();
        const std::size_t n = bytes.size();
        std::size_t i = 0;
        std::uint64_t le = 0;  // subtotal in native (byte-swapped) order
        if (n >= 32) {
            std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
            std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
            for (; i + 32 <= n; i += 32) {
                std::uint64_t w0, w1, w2, w3;
                std::memcpy(&w0, p + i, 8);
                std::memcpy(&w1, p + i + 8, 8);
                std::memcpy(&w2, p + i + 16, 8);
                std::memcpy(&w3, p + i + 24, 8);
                s0 += w0;
                c0 += (s0 < w0);
                s1 += w1;
                c1 += (s1 < w1);
                s2 += w2;
                c2 += (s2 < w2);
                s3 += w3;
                c3 += (s3 < w3);
            }
            le += (s0 >> 32) + (s0 & 0xffffffffu) + c0;
            le += (s1 >> 32) + (s1 & 0xffffffffu) + c1;
            le += (s2 >> 32) + (s2 & 0xffffffffu) + c2;
            le += (s3 >> 32) + (s3 & 0xffffffffu) + c3;
        }
        for (; i + 8 <= n; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, 8);
            le += (w >> 32) + (w & 0xffffffffu);
        }
        for (; i + 1 < n; i += 2) {
            std::uint16_t w;
            std::memcpy(&w, p + i, 2);
            le += w;
        }
        if (i < n) {
            // Odd trailing byte: the wire word is (byte << 8); in the
            // swapped domain that is the plain byte value.
            if constexpr (std::endian::native == std::endian::little) {
                le += p[i];
            } else {
                le += static_cast<std::uint32_t>(p[i]) << 8;
            }
        }
        while (le >> 16) {
            le = (le & 0xffff) + (le >> 16);
        }
        if constexpr (std::endian::native == std::endian::little) {
            le = static_cast<std::uint16_t>((le << 8) | (le >> 8));
        }
        sum_ += le;
    }

    /// Adds a single 16-bit value in host order.
    void add_u16(std::uint16_t v) { sum_ += v; }

    /// Adds a 32-bit value as two 16-bit words (for pseudo-headers).
    void add_u32(std::uint32_t v) {
        add_u16(static_cast<std::uint16_t>(v >> 16));
        add_u16(static_cast<std::uint16_t>(v & 0xffff));
    }

    /// Folds carries and returns the one's complement of the sum.
    std::uint16_t finish() const {
        std::uint64_t s = sum_;
        while (s >> 16) {
            s = (s & 0xffff) + (s >> 16);
        }
        return static_cast<std::uint16_t>(~s & 0xffff);
    }

private:
    std::uint64_t sum_ = 0;
};

/// One-shot checksum of a byte range.
inline std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
    ChecksumAccumulator acc;
    acc.add(bytes);
    return acc.finish();
}

/// Verifies a buffer whose checksum field is already in place: the sum of
/// the whole buffer (including the checksum) must fold to 0.
inline bool checksum_valid(std::span<const std::uint8_t> bytes) {
    // A buffer containing a correct checksum sums (one's complement) to
    // 0xffff, so the folded complement is zero.
    return internet_checksum(bytes) == 0;
}

/// Incremental update per RFC 1624 eqn. 3: given a buffer's checksum and
/// one 16-bit word changing from `old_word` to `new_word`, returns the new
/// checksum — HC' = ~(~HC + ~m + m') — without re-reading the buffer.
/// Matches a full RFC 1071 recompute bit-for-bit (including the
/// 0x0000/0xffff representations), provided the input checksum was itself
/// correct for the old contents.
std::uint16_t checksum_update_u16(std::uint16_t checksum, std::uint16_t old_word,
                                  std::uint16_t new_word);

/// Checksum for TCP/UDP: includes the RFC 793/768 pseudo-header of source
/// address, destination address, protocol and segment length. Inline for
/// the same reason as the accumulator itself: the TCP codec runs this once
/// per segment in both directions, and folding the pseudo-header words into
/// the word-at-a-time RFC 1071 loop at the call site costs nothing extra.
inline std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst,
                                        std::uint8_t protocol,
                                        std::span<const std::uint8_t> segment) {
    ChecksumAccumulator acc;
    acc.add_u32(src.value());
    acc.add_u32(dst.value());
    acc.add_u16(protocol);  // zero byte + protocol
    acc.add_u16(static_cast<std::uint16_t>(segment.size()));
    acc.add(segment);
    return acc.finish();
}

}  // namespace catenet::util
