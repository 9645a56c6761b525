// Unit tests for the utility layer: wire codecs, checksums, addresses,
// statistics, deterministic randomness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "util/byte_buffer.h"
#include "util/checksum.h"
#include "util/inline_function.h"
#include "util/ip_address.h"
#include "util/random.h"
#include "util/ring_buffer.h"
#include "util/stats.h"

namespace catenet::util {
namespace {

TEST(BufferWriter, WritesBigEndian) {
    BufferWriter w;
    w.put_u8(0x01);
    w.put_u16(0x0203);
    w.put_u32(0x04050607);
    w.put_u64(0x08090a0b0c0d0e0full);
    const auto buf = w.take();
    const std::uint8_t expected[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                                     0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    ASSERT_EQ(buf.size(), sizeof(expected));
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(), expected));
}

TEST(BufferWriter, PatchU16OverwritesInPlace) {
    BufferWriter w;
    w.put_u32(0);
    w.patch_u16(1, 0xbeef);
    EXPECT_EQ(w.data()[1], 0xbe);
    EXPECT_EQ(w.data()[2], 0xef);
}

TEST(BufferWriter, PatchPastEndThrows) {
    BufferWriter w;
    w.put_u16(0);
    EXPECT_THROW(w.patch_u16(1, 0), std::out_of_range);
}

TEST(BufferWriter, PatchRejectsHugeOffsetWithoutWrapping) {
    // A naive `offset + 2 > size` bounds check wraps for offsets near
    // SIZE_MAX and silently writes out of range.
    BufferWriter w;
    w.put_u32(0);
    EXPECT_THROW(w.patch_u16(std::numeric_limits<std::size_t>::max(), 0xffff),
                 std::out_of_range);
    EXPECT_THROW(w.patch_u16(std::numeric_limits<std::size_t>::max() - 1, 0xffff),
                 std::out_of_range);
}

TEST(BufferWriter, PatchOnEmptyOrTinyBufferThrows) {
    BufferWriter w;
    EXPECT_THROW(w.patch_u16(0, 1), std::out_of_range);
    w.put_u8(0);
    EXPECT_THROW(w.patch_u16(0, 1), std::out_of_range);
}

TEST(BufferReader, RoundTripsWriterOutput) {
    BufferWriter w;
    w.put_u16(0xabcd);
    w.put_u32(0x12345678);
    w.put_u8(0x7f);
    const auto buf = w.take();
    BufferReader r(buf);
    EXPECT_EQ(r.get_u16(), 0xabcd);
    EXPECT_EQ(r.get_u32(), 0x12345678u);
    EXPECT_EQ(r.get_u8(), 0x7f);
    EXPECT_TRUE(r.at_end());
}

TEST(BufferReader, ThrowsOnTruncation) {
    const std::uint8_t data[] = {1, 2, 3};
    BufferReader r(data);
    EXPECT_EQ(r.get_u16(), 0x0102);
    EXPECT_THROW(r.get_u16(), DecodeError);
}

TEST(BufferReader, SkipAndRemaining) {
    const std::uint8_t data[] = {1, 2, 3, 4, 5};
    BufferReader r(data);
    r.skip(2);
    EXPECT_EQ(r.remaining_size(), 3u);
    EXPECT_EQ(r.get_bytes(2).size(), 2u);
    EXPECT_EQ(r.remaining()[0], 5);
}

TEST(BufferString, RoundTrip) {
    const auto buf = buffer_from_string("hello catenet");
    EXPECT_EQ(string_from_buffer(buf), "hello catenet");
}

// --- checksum ---------------------------------------------------------

TEST(Checksum, Rfc1071WorkedExample) {
    // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2 -> checksum 0x220d
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, KnownIpv4HeaderVector) {
    // Classic worked IPv4 header (checksum field holds 0xb861); a buffer
    // containing its correct checksum folds to zero.
    const std::uint8_t header[] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
                                   0x40, 0x11, 0xb8, 0x61, 0xc0, 0xa8, 0x00, 0x01,
                                   0xc0, 0xa8, 0x00, 0xc7};
    EXPECT_TRUE(checksum_valid(header));
    auto zeroed = ByteBuffer(header, header + sizeof(header));
    zeroed[10] = zeroed[11] = 0;
    EXPECT_EQ(internet_checksum(zeroed), 0xb861);
}

TEST(Checksum, WordAtATimeMatchesByteAtATimeReference) {
    // The production path folds 64-bit chunks (RFC 1071 deferred carries);
    // it must agree bit-for-bit with the definitional per-word sum at
    // every length, including odd tails and sub-word buffers.
    Rng rng(7);
    for (std::size_t size = 0; size <= 130; ++size) {
        ByteBuffer buf(size);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
        std::uint64_t ref = 0;
        std::size_t i = 0;
        for (; i + 1 < buf.size(); i += 2) {
            ref += static_cast<std::uint16_t>((buf[i] << 8) | buf[i + 1]);
        }
        if (i < buf.size()) ref += static_cast<std::uint16_t>(buf[i] << 8);
        while (ref >> 16) ref = (ref & 0xffff) + (ref >> 16);
        const auto expected = static_cast<std::uint16_t>(~ref & 0xffff);
        ASSERT_EQ(internet_checksum(buf), expected) << "size=" << size;
    }
}

TEST(Checksum, ChunkedAddsMatchOneShot) {
    // Feeding the accumulator in arbitrary even-size chunks must match a
    // single add — chunk seams land mid-word-block on purpose.
    Rng rng(11);
    ByteBuffer buf(96);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    ChecksumAccumulator chunked;
    std::span<const std::uint8_t> view(buf);
    chunked.add(view.subspan(0, 2));
    chunked.add(view.subspan(2, 6));
    chunked.add(view.subspan(8, 10));
    chunked.add(view.subspan(18, 78));
    EXPECT_EQ(chunked.finish(), internet_checksum(buf));
}

TEST(Checksum, OddLengthPadsWithZero) {
    const std::uint8_t odd[] = {0x12, 0x34, 0x56};
    const std::uint8_t even[] = {0x12, 0x34, 0x56, 0x00};
    EXPECT_EQ(internet_checksum(odd), internet_checksum(even));
}

TEST(Checksum, ValidBufferSumsToZero) {
    BufferWriter w;
    w.put_u32(0xdeadbeef);
    w.put_u16(0);  // checksum slot
    w.put_u32(0x01020304);
    auto buf = w.take();
    const auto sum = internet_checksum(buf);
    buf[4] = static_cast<std::uint8_t>(sum >> 8);
    buf[5] = static_cast<std::uint8_t>(sum & 0xff);
    EXPECT_TRUE(checksum_valid(buf));
}

TEST(Checksum, DetectsSingleBitFlip) {
    Rng rng(42);
    int detected = 0;
    constexpr int kTrials = 200;
    for (int t = 0; t < kTrials; ++t) {
        ByteBuffer buf(64);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
        buf[6] = buf[7] = 0;
        const auto sum = internet_checksum(buf);
        buf[6] = static_cast<std::uint8_t>(sum >> 8);
        buf[7] = static_cast<std::uint8_t>(sum & 0xff);
        ASSERT_TRUE(checksum_valid(buf));
        const auto bit = rng.uniform(0, buf.size() * 8 - 1);
        buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        if (!checksum_valid(buf)) ++detected;
    }
    // One's-complement checksum detects all single-bit errors.
    EXPECT_EQ(detected, kTrials);
}

// Property: checksum of (buffer + its checksum) folds to zero for random
// buffers of every parity and size.
class ChecksumProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChecksumProperty, AppendedChecksumValidates) {
    Rng rng(GetParam() * 977 + 13);
    ByteBuffer buf(GetParam());
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    const auto sum = internet_checksum(buf);
    // Append checksum as a trailing 16-bit word (even-size buffers only —
    // odd sizes pad, which moves the word boundary).
    if (buf.size() % 2 == 0) {
        buf.push_back(static_cast<std::uint8_t>(sum >> 8));
        buf.push_back(static_cast<std::uint8_t>(sum & 0xff));
        EXPECT_TRUE(checksum_valid(buf));
    } else {
        EXPECT_NE(internet_checksum(buf), 0xffff);  // still well-defined
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChecksumProperty,
                         ::testing::Values(0, 1, 2, 3, 8, 9, 20, 21, 64, 127, 128, 255,
                                           256, 575, 576, 1499, 1500));

TEST(TransportChecksum, CoversPseudoHeader) {
    const Ipv4Address src(10, 0, 0, 1);
    const Ipv4Address dst(10, 0, 0, 2);
    const std::uint8_t seg[] = {1, 2, 3, 4};
    const auto a = transport_checksum(src, dst, 6, seg);
    const auto b = transport_checksum(src, Ipv4Address(10, 0, 0, 3), 6, seg);
    const auto c = transport_checksum(src, dst, 17, seg);
    EXPECT_NE(a, b) << "destination address must affect the checksum";
    EXPECT_NE(a, c) << "protocol must affect the checksum";
}

// --- addresses ---------------------------------------------------------

TEST(Ipv4Address, ParsesAndFormats) {
    const auto addr = Ipv4Address::parse("192.168.1.200");
    EXPECT_EQ(addr, Ipv4Address(192, 168, 1, 200));
    EXPECT_EQ(addr.to_string(), "192.168.1.200");
}

TEST(Ipv4Address, RejectsMalformed) {
    EXPECT_THROW(Ipv4Address::parse(""), std::invalid_argument);
    EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
    EXPECT_THROW(Ipv4Address::parse("1.2.3.4.5"), std::invalid_argument);
    EXPECT_THROW(Ipv4Address::parse("256.0.0.1"), std::invalid_argument);
    EXPECT_THROW(Ipv4Address::parse("1.2.3.x"), std::invalid_argument);
    EXPECT_THROW(Ipv4Address::parse("-1.2.3.4"), std::invalid_argument);
}

TEST(Ipv4Prefix, MaskAndContains) {
    const auto p = Ipv4Prefix::parse("10.1.2.0/24");
    EXPECT_EQ(p.mask(), 0xffffff00u);
    EXPECT_TRUE(p.contains(Ipv4Address(10, 1, 2, 77)));
    EXPECT_FALSE(p.contains(Ipv4Address(10, 1, 3, 77)));
}

TEST(Ipv4Prefix, CanonicalizesHostBits) {
    const Ipv4Prefix p(Ipv4Address(10, 1, 2, 77), 24);
    EXPECT_EQ(p.address(), Ipv4Address(10, 1, 2, 0));
}

TEST(Ipv4Prefix, ZeroLengthMatchesEverything) {
    const Ipv4Prefix def(Ipv4Address(0), 0);
    EXPECT_TRUE(def.contains(Ipv4Address(255, 255, 255, 255)));
    EXPECT_TRUE(def.contains(Ipv4Address(0)));
}

TEST(Ipv4Prefix, RejectsBadLength) {
    EXPECT_THROW(Ipv4Prefix(Ipv4Address(0), 33), std::invalid_argument);
    EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0/40"), std::invalid_argument);
    EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0"), std::invalid_argument);
}

// --- stats -------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, EmptyHasNoExtrema) {
    // An accumulator that saw nothing must not claim it observed 0.0:
    // min()/max() are NaN until the first sample, and empty() says why.
    RunningStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    s.add(-3.5);
    EXPECT_FALSE(s.empty());
    EXPECT_DOUBLE_EQ(s.min(), -3.5);
    EXPECT_DOUBLE_EQ(s.max(), -3.5);
}

TEST(RunningStats, MergeWithEmptyIsIdentityBothWays) {
    RunningStats filled;
    for (double x : {1.0, 2.0, 6.0}) filled.add(x);
    RunningStats empty;

    RunningStats a = filled;
    a.merge(empty);  // right identity
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);

    RunningStats b;  // left identity
    b.merge(filled);
    EXPECT_EQ(b.count(), 3u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
    EXPECT_DOUBLE_EQ(b.min(), 1.0);
    EXPECT_DOUBLE_EQ(b.max(), 6.0);

    RunningStats both;
    both.merge(empty);
    EXPECT_TRUE(both.empty());
    EXPECT_TRUE(std::isnan(both.min()));
}

TEST(Percentiles, ExactQuartiles) {
    Percentiles p;
    for (int i = 1; i <= 101; ++i) p.add(i);
    EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(50), 51.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 101.0);
    EXPECT_DOUBLE_EQ(p.percentile(25), 26.0);
}

TEST(Percentiles, InterleavedAddAndQuery) {
    Percentiles p;
    p.add(10);
    EXPECT_DOUBLE_EQ(p.median(), 10.0);
    p.add(20);
    p.add(30);
    EXPECT_DOUBLE_EQ(p.median(), 20.0);
}

TEST(Histogram, BucketsAndOverflow) {
    Histogram h(0.0, 10.0, 10);
    h.add(-1);
    h.add(0.5);
    h.add(9.5);
    h.add(10.0);
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.total(), 5u);
}

// --- shard-merge properties ---------------------------------------------
// The parallel engine folds per-shard accumulators after quiescence; the
// merged result must be indistinguishable from one accumulator that saw
// every sample, regardless of how the samples were split or in what order
// the shards joined.

TEST(Percentiles, MergeWithEmptyIsIdentity) {
    Percentiles filled;
    for (int i = 1; i <= 9; ++i) filled.add(i);
    Percentiles empty;
    filled.merge(empty);
    EXPECT_EQ(filled.count(), 9u);
    EXPECT_DOUBLE_EQ(filled.median(), 5.0);

    Percentiles target;
    target.merge(filled);
    EXPECT_EQ(target.count(), 9u);
    EXPECT_DOUBLE_EQ(target.median(), 5.0);
    EXPECT_DOUBLE_EQ(target.percentile(100), 9.0);
}

TEST(Percentiles, MergeSingleSampleShards) {
    // Degenerate sharding: every shard saw exactly one sample.
    Percentiles merged;
    for (double x : {7.0, 1.0, 5.0, 3.0, 9.0}) {
        Percentiles shard;
        shard.add(x);
        merged.merge(shard);
    }
    EXPECT_EQ(merged.count(), 5u);
    EXPECT_DOUBLE_EQ(merged.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(merged.median(), 5.0);
    EXPECT_DOUBLE_EQ(merged.percentile(100), 9.0);
}

TEST(Percentiles, MergeOrderDoesNotMatter) {
    Percentiles lo, hi;
    for (int i = 1; i <= 50; ++i) lo.add(i);
    for (int i = 51; i <= 101; ++i) hi.add(i);

    Percentiles lo_first = lo;
    lo_first.merge(hi);
    Percentiles hi_first = hi;
    hi_first.merge(lo);
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0}) {
        EXPECT_DOUBLE_EQ(lo_first.percentile(p), hi_first.percentile(p)) << p;
    }
    // And both match the unsharded accumulator.
    Percentiles all;
    for (int i = 1; i <= 101; ++i) all.add(i);
    EXPECT_DOUBLE_EQ(lo_first.percentile(50), all.percentile(50));
}

TEST(Histogram, MergeAddsBucketsUnderflowAndOverflow) {
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.add(-1);
    a.add(0.5);
    b.add(0.7);
    b.add(9.5);
    b.add(42.0);

    Histogram empty(0.0, 10.0, 10);
    a.merge(empty);  // empty merge changes nothing
    EXPECT_EQ(a.total(), 2u);

    Histogram ab = a;
    ab.merge(b);
    Histogram ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.total(), 5u);
    EXPECT_EQ(ab.bucket(0), 2u);
    EXPECT_EQ(ab.bucket(9), 1u);
    EXPECT_EQ(ab.underflow(), 1u);
    EXPECT_EQ(ab.overflow(), 1u);
    for (std::size_t i = 0; i < ab.bucket_count(); ++i) {
        EXPECT_EQ(ab.bucket(i), ba.bucket(i)) << i;
    }
    EXPECT_EQ(ab.underflow(), ba.underflow());
    EXPECT_EQ(ab.overflow(), ba.overflow());
}

TEST(Histogram, MergeRejectsMismatchedShape) {
    Histogram a(0.0, 10.0, 10);
    Histogram different_range(0.0, 20.0, 10);
    Histogram different_buckets(0.0, 10.0, 5);
    EXPECT_THROW(a.merge(different_range), std::invalid_argument);
    EXPECT_THROW(a.merge(different_buckets), std::invalid_argument);
}

// --- ring buffer --------------------------------------------------------

TEST(RingBuffer, RoundsCapacityUpToPowerOfTwo) {
    EXPECT_EQ(RingBuffer(1000).capacity(), 1024u);
    EXPECT_EQ(RingBuffer(1024).capacity(), 1024u);
    EXPECT_EQ(RingBuffer(1).capacity(), 1u);
    EXPECT_EQ(RingBuffer(0).capacity(), 1u);
}

TEST(RingBuffer, WriteBoundedByFreeSpace) {
    RingBuffer ring(8);
    const std::uint8_t data[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    EXPECT_EQ(ring.write(data), 8u);
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.free_space(), 0u);
    EXPECT_EQ(ring.write(data), 0u);
    ring.consume(3);
    EXPECT_EQ(ring.write(data), 3u);
    EXPECT_EQ(ring.size(), 8u);
}

TEST(RingBuffer, PeekSplitsOnlyAtPhysicalWrap) {
    RingBuffer ring(8);
    const std::uint8_t first[6] = {1, 2, 3, 4, 5, 6};
    ASSERT_EQ(ring.write(first), 6u);
    ring.consume(4);  // head at 4, tail at 6
    const std::uint8_t second[5] = {7, 8, 9, 10, 11};
    ASSERT_EQ(ring.write(second), 5u);  // tail wraps: bytes 9,10,11 at slots 0..2

    // Contiguous range: one span.
    auto s = ring.peek(0, 2);
    EXPECT_EQ(s.first.size(), 2u);
    EXPECT_TRUE(s.second.empty());
    EXPECT_EQ(s.first[0], 5);

    // Range across the wrap: exactly two spans, contents in order.
    s = ring.peek(1, 6);
    EXPECT_EQ(s.size(), 6u);
    EXPECT_EQ(s.first.size(), 3u);
    EXPECT_EQ(s.second.size(), 3u);
    const std::uint8_t expected[] = {6, 7, 8, 9, 10, 11};
    std::uint8_t got[6];
    ring.read(1, got);
    EXPECT_TRUE(std::equal(std::begin(got), std::end(got), std::begin(expected)));
    EXPECT_EQ(s.first[0], 6);
    EXPECT_EQ(s.second[2], 11);
}

TEST(RingBuffer, ReadAtOffsetDoesNotConsume) {
    RingBuffer ring(16);
    const std::uint8_t data[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    ring.write(data);
    std::uint8_t out[4];
    ring.read(3, out);
    EXPECT_EQ(out[0], 3);
    EXPECT_EQ(out[3], 6);
    EXPECT_EQ(ring.size(), 10u);
    ring.consume(10);
    EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, SurvivesLongWrappingTraffic) {
    // Grind a small ring with a pseudo-random produce/consume schedule and
    // check byte-for-byte against a straightforward shadow model.
    RingBuffer ring(64);
    Rng rng(1988);
    ByteBuffer shadow;
    std::uint8_t next = 0;
    for (int round = 0; round < 2000; ++round) {
        ByteBuffer chunk(rng.uniform(0, 80));
        for (auto& b : chunk) b = next++;
        const std::size_t free_before = ring.free_space();
        const auto taken = ring.write(chunk);
        EXPECT_EQ(taken, std::min(chunk.size(), free_before));
        shadow.insert(shadow.end(), chunk.begin(), chunk.begin() + taken);

        const std::size_t drop = rng.uniform(0, ring.size());
        if (ring.size() > 0) {
            ByteBuffer got(ring.size());
            ring.read(0, got);
            ASSERT_EQ(got, shadow) << "round " << round;
        }
        ring.consume(drop);
        shadow.erase(shadow.begin(), shadow.begin() + drop);
    }
}

TEST(RingBuffer, ClearResets) {
    RingBuffer ring(8);
    const std::uint8_t data[5] = {1, 2, 3, 4, 5};
    ring.write(data);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.free_space(), 8u);
    EXPECT_EQ(ring.write(data), 5u);
    std::uint8_t out[5];
    ring.read(0, out);
    EXPECT_EQ(out[4], 5);
}

// --- rng ----------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
    }
}

TEST(Rng, KnownAnswersPinTheSplitMix64Stream) {
    // SplitMix64's first outputs for seed 7. Every generated topology,
    // every fork and every link's draws follow from this stream, so a
    // change here moves all of them.
    Rng rng(7);
    EXPECT_EQ(rng.next(), 0x63cbe1e459320dd7ull);
    EXPECT_EQ(rng.next(), 0x044c3cd7f43c661cull);
    EXPECT_EQ(rng.next(), 0xe6984080bab12a02ull);
    EXPECT_EQ(rng.next(), 0x953aeb70673e29cbull);
    EXPECT_EQ(rng.next(), 0x73d33b666a1e21daull);
}

TEST(Rng, ForkIndependence) {
    Rng parent(7);
    Rng child = parent.fork();
    Rng parent2(7);
    Rng child2 = parent2.fork();
    std::vector<std::uint64_t> from_child, from_twin, from_parent;
    for (int i = 0; i < 10; ++i) {
        from_child.push_back(child.next());
        from_twin.push_back(child2.next());
        from_parent.push_back(parent.next());
    }
    EXPECT_EQ(from_child, from_twin) << "same-seed forks must match";
    // The child stream must not replay the parent stream, from the fork on
    // or from the parent's seed.
    EXPECT_NE(from_child, from_parent);
    Rng fresh(7);
    for (const std::uint64_t v : from_child) EXPECT_NE(v, fresh.next());
}

TEST(Rng, UniformMappingEdges) {
    // The full 64-bit range wraps the span to 0: the raw output itself.
    Rng full(3), twin(3);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(full.uniform(0, std::numeric_limits<std::uint64_t>::max()), twin.next());
    }
    // A one-value range returns it (and still consumes a draw).
    Rng one(4), one_twin(4);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(one.uniform(5, 5), 5u);
    for (int i = 0; i < 8; ++i) one_twin.next();
    EXPECT_EQ(one.next(), one_twin.next());
    // uniform01 is the top 53 bits scaled into [0, 1).
    Rng real(5), real_twin(5);
    for (int i = 0; i < 100000; ++i) {
        const double u = real.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        ASSERT_EQ(u, static_cast<double>(real_twin.next() >> 11) * 0x1.0p-53);
    }
}

TEST(Rng, ChanceBoundaries) {
    // p <= 0 and p >= 1 decide without drawing: a lossless link calls
    // chance(0) per packet, and its stream (so every digest of a lossless
    // run) must not move.
    Rng rng(1), twin(1);
    for (int i = 0; i < 32; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
    EXPECT_EQ(rng.next(), twin.next());
    // Inside (0, 1) a trial draws exactly once.
    rng.chance(0.5);
    twin.next();
    EXPECT_EQ(rng.next(), twin.next());
}

TEST(Rng, ExponentialHasRequestedMean) {
    Rng rng(99);
    double sum = 0;
    constexpr int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / kSamples, 5.0, 0.15);
}

// --- InlineCallback::prefetch ------------------------------------------

// Spies count into these; a library callable's prefetch() may only issue
// cache prefetches, but a test spy has to leave a trace.
int g_spy_prefetches = 0;
int g_spy_calls = 0;

template <std::size_t Pad>
struct PrefetchSpy {
    unsigned char pad[Pad] = {};
    void operator()() { ++g_spy_calls; }
    void prefetch() const noexcept { ++g_spy_prefetches; }
};

struct MutablePrefetch {  // prefetch() not const: not the declared shape
    void operator()() { ++g_spy_calls; }
    void prefetch() noexcept { ++g_spy_prefetches; }
};

TEST(InlineCallback, PrefetchCallsTheCallablesPrefetchInlineAndOnTheHeap) {
    g_spy_prefetches = g_spy_calls = 0;
    InlineCallback small(PrefetchSpy<8>{});
    ASSERT_TRUE(small.is_inline());
    small.prefetch();
    EXPECT_EQ(g_spy_prefetches, 1);

    InlineCallback big(PrefetchSpy<2 * InlineCallback::kInlineSize>{});
    ASSERT_FALSE(big.is_inline());
    big.prefetch();
    EXPECT_EQ(g_spy_prefetches, 2);

    // It survives a move, and it never runs the callable.
    InlineCallback moved = std::move(big);
    moved.prefetch();
    EXPECT_EQ(g_spy_prefetches, 3);
    EXPECT_EQ(g_spy_calls, 0);
    small();
    moved();
    EXPECT_EQ(g_spy_calls, 2);
    EXPECT_EQ(g_spy_prefetches, 3);
}

TEST(InlineCallback, PrefetchDoesNothingWithoutADeclaredPrefetch) {
    g_spy_prefetches = g_spy_calls = 0;
    int lambda_calls = 0;
    InlineCallback plain([&lambda_calls] { ++lambda_calls; });
    plain.prefetch();
    EXPECT_EQ(lambda_calls, 0);
    InlineCallback non_const(MutablePrefetch{});
    non_const.prefetch();
    EXPECT_EQ(g_spy_prefetches, 0);
    EXPECT_EQ(g_spy_calls, 0);
    InlineCallback empty;
    empty.prefetch();
    InlineCallback reset(PrefetchSpy<8>{});
    reset.reset();
    reset.prefetch();
    EXPECT_EQ(g_spy_prefetches, 0);
}

}  // namespace
}  // namespace catenet::util
