// IP edge cases: overlapping and pathological fragments, reassembly
// soft-state bounds, options handling, identification reuse, and error-
// generation restraint.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/internetwork.h"
#include "ip/ip_stack.h"
#include "ip/protocols.h"
#include "ip/reassembly.h"
#include "link/presets.h"
#include "util/checksum.h"

namespace catenet::ip {
namespace {

using util::Ipv4Address;

struct ReasmEdge : ::testing::Test {
    sim::Simulator sim;
    Reassembler reasm{sim, sim::seconds(15)};

    Ipv4Header frag(std::uint16_t id, std::size_t offset, bool more) {
        Ipv4Header h;
        h.identification = id;
        h.protocol = kProtoUdp;
        h.src = Ipv4Address(1, 1, 1, 1);
        h.dst = Ipv4Address(2, 2, 2, 2);
        h.fragment_offset = static_cast<std::uint16_t>(offset / 8);
        h.more_fragments = more;
        return h;
    }
};

TEST_F(ReasmEdge, OverlappingFragmentsStillComplete) {
    // Two fragments overlapping by 8 bytes; the datagram must complete
    // with a consistent byte for every position.
    util::ByteBuffer first(16, 0xaa);
    util::ByteBuffer second(16, 0xbb);  // covers [8, 24)
    reasm.add_fragment(frag(1, 0, true), first);
    auto done = reasm.add_fragment(frag(1, 8, false), second);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->size(), 24u);
    EXPECT_EQ((*done)[0], 0xaa);
    EXPECT_EQ((*done)[23], 0xbb);
}

TEST_F(ReasmEdge, FragmentEntirelyInsideAnother) {
    util::ByteBuffer outer(32, 0x11);
    util::ByteBuffer inner(8, 0x22);  // [8, 16), redundant
    reasm.add_fragment(frag(2, 8, true), inner);
    auto done = reasm.add_fragment(frag(2, 0, false), outer);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->size(), 32u);
}

TEST_F(ReasmEdge, ZeroLengthFragmentIsHarmless) {
    util::ByteBuffer empty;
    EXPECT_FALSE(reasm.add_fragment(frag(3, 0, true), empty).has_value());
    util::ByteBuffer tail(8, 0x33);
    // Note the datagram is [0,8) carried entirely by the tail at offset 0.
    auto done = reasm.add_fragment(frag(3, 0, false), tail);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->size(), 8u);
}

TEST_F(ReasmEdge, ManyIncompleteDatagramsAreBoundedByTimeout) {
    // A fragment flood creates soft state that the timeout reclaims.
    for (std::uint16_t id = 0; id < 200; ++id) {
        reasm.add_fragment(frag(id, 0, true), util::ByteBuffer(8, 1));
    }
    EXPECT_EQ(reasm.pending(), 200u);
    sim.run_until(sim::seconds(20));
    // Trigger the sweep.
    reasm.add_fragment(frag(9999, 0, true), util::ByteBuffer(8, 1));
    EXPECT_EQ(reasm.pending(), 1u) << "flood state must evaporate";
    EXPECT_EQ(reasm.stats().timeouts, 200u);
}

TEST_F(ReasmEdge, SameIdentificationAfterCompletionStartsFresh) {
    util::ByteBuffer half(8, 0x44);
    reasm.add_fragment(frag(7, 0, true), half);
    auto done = reasm.add_fragment(frag(7, 8, false), half);
    ASSERT_TRUE(done.has_value());
    // Reusing id 7: must behave as a brand new datagram.
    EXPECT_FALSE(reasm.add_fragment(frag(7, 0, true), half).has_value());
    done = reasm.add_fragment(frag(7, 8, false), half);
    EXPECT_TRUE(done.has_value());
}

TEST(IpOptions, HeaderWithOptionsIsDecoded) {
    // Hand-build a datagram with IHL=6 (4 bytes of options).
    util::BufferWriter w;
    w.put_u8(0x46);  // version 4, IHL 6
    w.put_u8(0);
    w.put_u16(24 + 4);  // total: 24 header + 4 payload
    w.put_u16(0x1234);
    w.put_u16(0);
    w.put_u8(64);
    w.put_u8(kProtoUdp);
    w.put_u16(0);  // checksum placeholder
    w.put_u32(Ipv4Address(1, 2, 3, 4).value());
    w.put_u32(Ipv4Address(5, 6, 7, 8).value());
    w.put_u8(7);  // record-route option kind
    w.put_u8(3);
    w.put_u8(4);
    w.put_u8(0);  // end of options
    const auto checksum = util::internet_checksum(
        std::span<const std::uint8_t>(w.data().data(), 24));
    w.patch_u16(10, checksum);
    w.put_bytes(util::ByteBuffer{9, 9, 9, 9});

    DecodedDatagram d;
    ASSERT_TRUE(decode_datagram(w.data(), d));
    EXPECT_EQ(d.header_length, 24u);
    EXPECT_EQ(d.payload_length, 4u);
    EXPECT_EQ(payload_of(w.data(), d)[0], 9);
}

// Forwarding's shapes off the in-place fast path: a datagram that carries
// IP options, or link padding behind total_length, leaves the gateway as a
// plain datagram (20-byte header, TTL - 1, exactly its payload); one with
// options headed onto a narrower link is fragmented there and reassembles
// intact, unless it leaves small enough to fit, which is what DF is tested
// against.
TEST(IpOptions, GatewayForwardsOptionsAndPaddingAsPlainDatagrams) {
    constexpr std::uint8_t kProto = 253;  // RFC 3692 experimental
    core::Internetwork net(134);
    core::Host& a = net.add_host("a");
    core::Gateway& g = net.add_gateway("g");
    core::Host& b = net.add_host("b");
    core::Host& c = net.add_host("c");
    link::LinkParams narrow = link::presets::ethernet_hop();
    narrow.mtu = 576;
    net.connect(a, g, link::presets::ethernet_hop());  // a:0  g:0
    net.connect(g, b, link::presets::ethernet_hop());  // g:1  b:0
    net.connect(g, c, narrow);                         // g:2  c:0
    net.use_static_routes();

    std::vector<util::ByteBuffer> at_b;  // frames as they reach b
    b.ip().interface(0).set_receiver(
        [&at_b](link::Packet p) { at_b.push_back(std::move(p.bytes)); });
    std::vector<util::ByteBuffer> at_c;  // payloads c reassembled
    c.ip().register_protocol(kProto, [&at_c](const Ipv4Header&,
                                             std::span<const std::uint8_t> payload,
                                             std::size_t) {
        at_c.emplace_back(payload.begin(), payload.end());
    });

    // A wire image with `options` bytes of NOP options after the fixed
    // header and `padding` bytes after the payload that total_length leaves
    // out, DF set if `df`, injected on a's link so that g is the first stack
    // to see it.
    auto inject = [&](Ipv4Address dst, std::size_t options, std::size_t padding,
                      const util::ByteBuffer& payload, bool df = false) {
        const std::size_t hlen = kIpv4HeaderSize + options;
        util::ByteBuffer w(hlen + payload.size() + padding, 0xee);
        w[0] = static_cast<std::uint8_t>(0x40 | (hlen / 4));
        w[1] = 0;
        util::store_be16(&w[2], static_cast<std::uint16_t>(hlen + payload.size()));
        util::store_be16(&w[4], 0x1234);
        util::store_be16(&w[6], df ? 0x4000 : 0);
        w[8] = 9;  // ttl
        w[9] = kProto;
        util::store_be16(&w[10], 0);
        util::store_be32(&w[12], a.address().value());
        util::store_be32(&w[16], dst.value());
        std::fill_n(w.begin() + kIpv4HeaderSize, options, 0x01);
        util::store_be16(&w[10], util::internet_checksum({w.data(), hlen}));
        std::copy(payload.begin(), payload.end(), w.begin() + static_cast<long>(hlen));
        a.ip().interface(0).send(link::Packet{std::move(w)}, Ipv4Address{});
    };
    auto pattern = [](std::size_t n) {
        util::ByteBuffer p(n);
        for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(i * 7 + 3);
        return p;
    };

    const util::ByteBuffer small = pattern(100);
    inject(b.address(), /*options=*/4, /*padding=*/0, small);
    inject(b.address(), /*options=*/0, /*padding=*/6, small);
    net.run_for(sim::milliseconds(20));
    ASSERT_EQ(at_b.size(), 2u);
    for (const util::ByteBuffer& wire : at_b) {
        DecodedDatagram d;
        ASSERT_TRUE(decode_datagram(wire, d));
        EXPECT_EQ(d.header_length, kIpv4HeaderSize);
        EXPECT_EQ(wire.size(), kIpv4HeaderSize + small.size());
        EXPECT_EQ(d.header.ttl, 8);
        EXPECT_EQ(d.header.identification, 0x1234);
        const auto payload = payload_of(wire, d);
        EXPECT_EQ(util::ByteBuffer(payload.begin(), payload.end()), small);
    }
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpFwd), 2u);
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpFragsCreated), 0u);

    // 1000 bytes onto a 576-byte link: 552 + 448 bytes of payload.
    const util::ByteBuffer big = pattern(1000);
    inject(c.address(), /*options=*/4, /*padding=*/0, big);
    net.run_for(sim::milliseconds(20));
    ASSERT_EQ(at_c.size(), 1u);
    EXPECT_EQ(at_c.front(), big);
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpFragsCreated), 2u);
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpFwd), 3u);

    // DF with 4 bytes of options and 556 of payload: 580 bytes arrive, but
    // the 576 that leave fit the 576-byte link, so g forwards it whole.
    const util::ByteBuffer fits = pattern(556);
    inject(c.address(), /*options=*/4, /*padding=*/0, fits, /*df=*/true);
    net.run_for(sim::milliseconds(20));
    ASSERT_EQ(at_c.size(), 2u);
    EXPECT_EQ(at_c.back(), fits);
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpFwd), 4u);
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpDropFragNeeded), 0u);
    EXPECT_EQ(g.ip().counters().get(telemetry::Counter::IpFragsCreated), 2u);
}

TEST(IcmpRestraint, NoErrorAboutAnError) {
    // A time-exceeded about an inbound ICMP error must NOT be generated:
    // send an unreachable-eliciting datagram whose payload is itself an
    // ICMP error. The stack must stay silent rather than loop.
    core::Internetwork net(131);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& g = net.add_gateway("g");
    net.connect(a, g, link::presets::ethernet_hop());
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();

    // Craft an ICMP error message and send it to b with TTL 1 so it dies
    // at the gateway. The gateway must not emit Time Exceeded about it.
    const auto inner = IcmpMessage::error(IcmpType::DestinationUnreachable, 0,
                                          util::ByteBuffer(28, 0));
    SendOptions opts;
    opts.ttl = 1;
    int errors_back = 0;
    a.ip().add_icmp_error_handler(
        [&](const IcmpMessage&, Ipv4Address) { ++errors_back; });
    a.ip().send(kProtoIcmp, b.address(), encode_icmp(inner), opts);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(errors_back, 0) << "errors about errors are forbidden";
    EXPECT_EQ(g.ip().stats().icmp_errors_sent, 0u);
}

TEST(IcmpRestraint, NoErrorAboutNonFirstFragment) {
    core::Internetwork net(132);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& g = net.add_gateway("g");
    net.connect(a, g, link::presets::ethernet_hop());
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();

    // A non-first fragment with TTL 1 expires at the gateway: silence.
    // Build it by sending a fragmented datagram with TTL 1: the gateway
    // drops each fragment but may only report about the first.
    link::LinkParams small = link::presets::ethernet_hop();
    (void)small;
    int errors_back = 0;
    a.ip().add_icmp_error_handler(
        [&](const IcmpMessage& m, Ipv4Address) {
            if (m.type == IcmpType::TimeExceeded) ++errors_back;
        });
    SendOptions opts;
    opts.ttl = 1;
    // 3000 bytes over a 1500 MTU: two fragments leave host a.
    a.ip().send(200, b.address(), util::ByteBuffer(3000, 0x55), opts);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(errors_back, 1) << "exactly one error: about the first fragment only";
}

TEST(IcmpHandlers, RemovalDuringDispatchSkipsTheRemovedAndKeepsTheRest) {
    core::Internetwork net(134);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& g = net.add_gateway("g");
    net.connect(a, g, link::presets::ethernet_hop());
    net.connect(g, b, link::presets::ethernet_hop());
    net.use_static_routes();

    // The first observer removes itself and the second; the third stays.
    std::vector<int> calls(3, 0);
    IpStack::HandlerId ids[3] = {};
    ids[0] = a.ip().add_icmp_error_handler([&](const IcmpMessage&, Ipv4Address) {
        ++calls[0];
        a.ip().remove_icmp_error_handler(ids[0]);
        a.ip().remove_icmp_error_handler(ids[1]);
    });
    ids[1] = a.ip().add_icmp_error_handler([&](const IcmpMessage&, Ipv4Address) { ++calls[1]; });
    ids[2] = a.ip().add_icmp_error_handler([&](const IcmpMessage&, Ipv4Address) { ++calls[2]; });
    for (int probe = 0; probe < 2; ++probe) {
        a.ip().ping(b.address(), 1, static_cast<std::uint16_t>(probe), {}, /*ttl=*/1);
        net.run_for(sim::seconds(1));
    }
    EXPECT_EQ(calls, (std::vector<int>{1, 0, 2}));
}

TEST(ProtocolHandlers, RemovalNeedsTheCurrentHandlersId) {
    core::Internetwork net(135);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();
    constexpr std::uint8_t kProto = 200;
    int first = 0;
    int second = 0;
    const IpStack::HandlerId old_id = b.ip().register_protocol(
        kProto, [&](const Ipv4Header&, std::span<const std::uint8_t>, std::size_t) { ++first; });
    IpStack::HandlerId new_id = 0;
    new_id = b.ip().register_protocol(
        kProto, [&](const Ipv4Header&, std::span<const std::uint8_t>, std::size_t) {
            ++second;
            b.ip().remove_protocol(kProto, new_id);  // from inside itself
        });
    EXPECT_NE(old_id, new_id);
    b.ip().remove_protocol(kProto, old_id);  // replaced: leaves the new one
    for (int i = 0; i < 2; ++i) {
        a.ip().send(kProto, b.address(), util::ByteBuffer(8, 0x5a));
        net.run_for(sim::seconds(1));
    }
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1) << "the self-removed handler ran once";
    EXPECT_EQ(b.ip().stats().icmp_errors_sent, 1u) << "then protocol 200 is unreachable";
}

TEST(IpStats, HeaderChecksumProtectsOnlyTheHeader) {
    // The end-to-end argument in miniature: IP's checksum covers 20 of
    // ~1020 bytes, so most corruption sails through the internet layer and
    // lands on the transport. IP only discards when the *header* is hit.
    core::Internetwork net(133);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    link::LinkParams noisy = link::presets::ethernet_hop();
    noisy.bit_error_rate = 1e-4;  // nearly every 1000-byte packet corrupted
    net.connect(a, b, noisy);
    net.use_static_routes();
    int delivered = 0;
    int payload_corrupt = 0;
    b.ip().register_protocol(200, [&](const Ipv4Header&,
                                      std::span<const std::uint8_t> payload,
                                      std::size_t) {
        ++delivered;
        for (auto byte : payload) {
            if (byte != 0x5a) {
                ++payload_corrupt;
                break;
            }
        }
    });
    constexpr int kSent = 100;
    for (int i = 0; i < kSent; ++i) {
        a.ip().send(200, b.address(), util::ByteBuffer(1000, 0x5a));
        net.run_for(sim::milliseconds(10));
    }
    net.run_for(sim::seconds(1));
    const auto& stats = b.ip().stats();
    EXPECT_GT(delivered, kSent / 2) << "payload-only corruption passes IP";
    EXPECT_GT(payload_corrupt, kSent / 4)
        << "the application sees the damage — transports must checksum";
    // Header hits happen at roughly 20/1020 of flips: a few drops.
    EXPECT_GT(stats.dropped_bad_checksum + stats.dropped_malformed, 0u);
}

}  // namespace
}  // namespace catenet::ip
