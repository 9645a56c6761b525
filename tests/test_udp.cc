// UDP unit tests: codec, checksum semantics, demultiplexing, ephemeral
// ports, behaviour over fragmenting and lossy paths.
#include <gtest/gtest.h>

#include "core/internetwork.h"
#include "link/presets.h"
#include "udp/udp.h"

namespace catenet::udp {
namespace {

using util::Ipv4Address;

TEST(UdpCodec, RoundTrip) {
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    UdpHeader h;
    h.src_port = 5353;
    h.dst_port = 53;
    const util::ByteBuffer payload{1, 2, 3, 4, 5, 6, 7};
    const auto wire = encode_udp(h, src, dst, payload);
    EXPECT_EQ(wire.size(), kUdpHeaderSize + payload.size());

    std::span<const std::uint8_t> out;
    const auto back = decode_udp(src, dst, wire, out);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->src_port, 5353);
    EXPECT_EQ(back->dst_port, 53);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), out.begin()));
}

TEST(UdpCodec, ChecksumCatchesCorruption) {
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    auto wire = encode_udp(UdpHeader{1, 2}, src, dst, util::ByteBuffer{9, 9});
    wire.back() ^= 0x10;
    std::span<const std::uint8_t> out;
    EXPECT_FALSE(decode_udp(src, dst, wire, out).has_value());
}

TEST(UdpCodec, ChecksumCoversAddresses) {
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    const auto wire = encode_udp(UdpHeader{1, 2}, src, dst, {});
    std::span<const std::uint8_t> out;
    EXPECT_FALSE(decode_udp(src, Ipv4Address(9, 9, 9, 9), wire, out).has_value())
        << "misrouted datagram must fail the pseudo-header checksum";
}

TEST(UdpCodec, TruncatedRejected) {
    const Ipv4Address src(1, 1, 1, 1), dst(2, 2, 2, 2);
    std::span<const std::uint8_t> out;
    const util::ByteBuffer tiny{1, 2, 3};
    EXPECT_FALSE(decode_udp(src, dst, tiny, out).has_value());
}

TEST(UdpCodec, VouchedDecodeSkipsTheChecksumFold) {
    // What a receiver does for a datagram the link vouched for (csum_ok):
    // no fold, so even a wrong checksum field decodes.
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    auto wire = encode_udp(UdpHeader{7, 9}, src, dst, util::ByteBuffer{1, 2, 3});
    wire[7] ^= 0x01;  // the checksum field's low byte
    std::span<const std::uint8_t> out;
    EXPECT_FALSE(decode_udp(src, dst, wire, out).has_value());
    const auto h = decode_udp(src, dst, wire, out, /*verify_checksum=*/false);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->src_port, 7);
    EXPECT_EQ(h->dst_port, 9);
    EXPECT_EQ(util::to_buffer(out), (util::ByteBuffer{1, 2, 3}));
}

struct UdpPair : ::testing::Test {
    core::Internetwork net{31};
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");

    void wire(const link::LinkParams& params = link::presets::ethernet_hop()) {
        net.connect(a, b, params);
        net.use_static_routes();
    }
};

TEST_F(UdpPair, DatagramDelivery) {
    wire();
    auto rx = b.udp().bind(1000);
    std::string got;
    std::uint16_t got_port = 0;
    rx->set_handler([&](Ipv4Address from, std::uint16_t port,
                        std::span<const std::uint8_t> data) {
        got = util::string_from_buffer(data);
        got_port = port;
        EXPECT_EQ(from, a.address());
    });
    auto tx = a.udp().bind_ephemeral();
    ASSERT_TRUE(tx->send_to(b.address(), 1000, util::buffer_from_string("datagram!")));
    net.run_for(sim::seconds(1));
    EXPECT_EQ(got, "datagram!");
    EXPECT_EQ(got_port, tx->local_port());
}

TEST_F(UdpPair, DemuxAcrossPorts) {
    wire();
    auto rx1 = b.udp().bind(1001);
    auto rx2 = b.udp().bind(1002);
    int got1 = 0, got2 = 0;
    rx1->set_handler([&](auto, auto, auto) { ++got1; });
    rx2->set_handler([&](auto, auto, auto) { ++got2; });
    auto tx = a.udp().bind_ephemeral();
    tx->send_to(b.address(), 1001, util::ByteBuffer{1});
    tx->send_to(b.address(), 1002, util::ByteBuffer{2});
    tx->send_to(b.address(), 1002, util::ByteBuffer{3});
    net.run_for(sim::seconds(1));
    EXPECT_EQ(got1, 1);
    EXPECT_EQ(got2, 2);
}

TEST_F(UdpPair, UnboundPortCounted) {
    wire();
    auto tx = a.udp().bind_ephemeral();
    tx->send_to(b.address(), 4242, util::ByteBuffer{1});
    net.run_for(sim::seconds(1));
    EXPECT_EQ(b.udp().stats().dropped_no_socket, 1u);
}

TEST_F(UdpPair, DoubleBindThrows) {
    wire();
    auto rx = b.udp().bind(1000);
    EXPECT_THROW(b.udp().bind(1000), std::invalid_argument);
}

TEST_F(UdpPair, SocketDestructionUnbinds) {
    wire();
    { auto rx = b.udp().bind(1000); }
    auto rx2 = b.udp().bind(1000);  // rebind must succeed
    SUCCEED();
}

TEST_F(UdpPair, LargeDatagramSurvivesFragmentation) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.mtu = 576;
    wire(params);
    auto rx = b.udp().bind(1000);
    util::ByteBuffer got;
    rx->set_handler([&](auto, auto, std::span<const std::uint8_t> data) {
        got = util::to_buffer(data);
    });
    util::ByteBuffer big(4000);
    for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<std::uint8_t>(i * 7);
    }
    auto tx = a.udp().bind_ephemeral();
    tx->send_to(b.address(), 1000, big);
    net.run_for(sim::seconds(1));
    EXPECT_EQ(got, big);
    EXPECT_GT(a.ip().stats().fragments_created, 0u);
}

TEST_F(UdpPair, LossIsSilent) {
    // The defining UDP property: datagrams vanish and nobody tells you.
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.5;
    wire(params);
    auto rx = b.udp().bind(1000);
    int got = 0;
    rx->set_handler([&](auto, auto, auto) { ++got; });
    auto tx = a.udp().bind_ephemeral();
    constexpr int kSent = 400;
    for (int i = 0; i < kSent; ++i) {
        tx->send_to(b.address(), 1000, util::ByteBuffer{1});
        net.run_for(sim::milliseconds(5));  // pace: isolate channel loss from queue loss
    }
    net.run_for(sim::seconds(5));
    EXPECT_GT(got, kSent / 4);
    EXPECT_LT(got, 3 * kSent / 4);
    EXPECT_EQ(a.udp().stats().datagrams_sent, static_cast<std::uint64_t>(kSent));
}

TEST_F(UdpPair, BitErrorsNeverReachTheHandler) {
    // Whole datagrams leave vouched, and a link that flips a bit drops the
    // vouch: so UDP skips the checksum fold only where it would pass, and
    // damaged datagrams still die at UDP's checksum (or IP's).
    link::LinkParams noisy = link::presets::ethernet_hop();
    noisy.bit_error_rate = 1e-4;  // about one 500-byte datagram in three hit
    wire(noisy);
    std::vector<util::ByteBuffer> sent;
    int got = 0;
    int damaged = 0;
    auto rx = b.udp().bind(1000);
    rx->set_handler([&](auto, auto, std::span<const std::uint8_t> data) {
        ++got;
        const std::size_t seq = data.size() < 2 ? sent.size() : util::load_be16(data.data());
        if (seq >= sent.size() || util::to_buffer(data) != sent[seq]) ++damaged;
    });
    auto tx = a.udp().bind_ephemeral();
    for (std::uint16_t i = 0; i < 200; ++i) {
        util::ByteBuffer payload(500, static_cast<std::uint8_t>(i * 13));
        util::store_be16(payload.data(), i);
        sent.push_back(payload);
        ASSERT_TRUE(tx->send_to(b.address(), 1000, payload));
        net.run_for(sim::milliseconds(10));
    }
    net.run_for(sim::seconds(1));
    EXPECT_GT(got, 100);
    EXPECT_EQ(damaged, 0) << "a damaged datagram reached the handler";
    EXPECT_GT(b.udp().stats().dropped_bad_checksum + b.ip().stats().dropped_bad_checksum, 0u);
}

TEST_F(UdpPair, TosBitsCarriedInIpHeader) {
    wire();
    std::uint8_t seen_tos = 0;
    // Peek at the IP layer via a tap on the receiving host's handler.
    b.ip().register_protocol(
        200, [](const ip::Ipv4Header&, std::span<const std::uint8_t>, std::size_t) {});
    auto rx = b.udp().bind(1000);
    rx->set_handler([&](auto, auto, auto) {});
    // Observe via gateway-free direct path: use IP stats instead; simplest
    // check: send and confirm on the wire through a forward tap on b.
    // Direct connection has no forwarding, so decode the header in a raw
    // protocol handler instead: re-register UDP is not possible. Use the
    // socket's own path: set ToS then verify via a's datagrams_sent and
    // the fact the checksum (which covers nothing of ToS) passed. The
    // real assertion happens in the IP codec tests; here we verify the
    // setter is plumbed by sending through a gateway with a tap.
    core::Internetwork net2(32);
    core::Host& c = net2.add_host("c");
    core::Host& d = net2.add_host("d");
    core::Gateway& gw = net2.add_gateway("gw");
    net2.connect(c, gw, link::presets::ethernet_hop());
    net2.connect(gw, d, link::presets::ethernet_hop());
    net2.use_static_routes();
    gw.ip().set_forward_tap([&](const ip::Ipv4Header& h, std::size_t) { seen_tos = h.tos; });
    auto rx2 = d.udp().bind(1000);
    rx2->set_handler([](auto, auto, auto) {});
    auto tx2 = c.udp().bind_ephemeral();
    tx2->set_tos(0x10);
    tx2->send_to(d.address(), 1000, util::ByteBuffer{1});
    net2.run_for(sim::seconds(1));
    EXPECT_EQ(seen_tos, 0x10);
}

}  // namespace
}  // namespace catenet::udp
