// Unit tests for the link layer: queue disciplines, point-to-point channel
// model (rate, delay, loss, corruption), shared LAN.
#include <gtest/gtest.h>

#include "link/lan.h"
#include "link/point_to_point.h"
#include "link/presets.h"
#include "link/queue.h"

namespace catenet::link {
namespace {

Packet make_test_packet(std::size_t size, std::uint8_t fill = 0xab) {
    Packet p;
    p.bytes = util::ByteBuffer(size, fill);
    return p;
}

// --- DropTailQueue -----------------------------------------------------

TEST(DropTailQueue, FifoOrder) {
    DropTailQueue q(4);
    for (std::uint8_t i = 0; i < 3; ++i) q.enqueue(make_test_packet(10, i));
    EXPECT_EQ(q.dequeue()->bytes[0], 0);
    EXPECT_EQ(q.dequeue()->bytes[0], 1);
    EXPECT_EQ(q.dequeue()->bytes[0], 2);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
    DropTailQueue q(2);
    EXPECT_TRUE(q.enqueue(make_test_packet(10)));
    EXPECT_TRUE(q.enqueue(make_test_packet(10)));
    EXPECT_FALSE(q.enqueue(make_test_packet(10)));
    EXPECT_EQ(q.stats().dropped, 1u);
    EXPECT_EQ(q.stats().enqueued, 2u);
    EXPECT_EQ(q.packets(), 2u);
}

TEST(DropTailQueue, TracksBytes) {
    DropTailQueue q(8);
    q.enqueue(make_test_packet(100));
    q.enqueue(make_test_packet(50));
    EXPECT_EQ(q.bytes(), 150u);
    q.dequeue();
    EXPECT_EQ(q.bytes(), 50u);
    q.clear();
    EXPECT_EQ(q.bytes(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, ZeroCapacityRejected) {
    EXPECT_THROW(DropTailQueue q(0), std::invalid_argument);
}

// Every preallocated DropTailQueue slot holds one Packet, so its size is
// paid once per slot of every port: the soak's trunk ports alone hold
// 785,920 slots.
static_assert(sizeof(Packet) <= 32);

// --- PriorityQueue ------------------------------------------------------

TEST(PriorityQueue, HighPriorityFirst) {
    // Classify by first byte.
    PriorityQueue q(2, 8, [](const Packet& p) { return std::uint64_t{p.bytes[0]}; });
    q.enqueue(make_test_packet(10, 1));  // low priority
    q.enqueue(make_test_packet(10, 0));  // high priority
    q.enqueue(make_test_packet(10, 1));
    EXPECT_EQ(q.dequeue()->bytes[0], 0);
    EXPECT_EQ(q.dequeue()->bytes[0], 1);
    EXPECT_EQ(q.dequeue()->bytes[0], 1);
}

TEST(PriorityQueue, LevelsClampToLast) {
    PriorityQueue q(2, 8, [](const Packet& p) { return std::uint64_t{p.bytes[0]}; });
    q.enqueue(make_test_packet(10, 250));  // clamps to level 1
    EXPECT_EQ(q.packets(), 1u);
}

TEST(PriorityQueue, PerLevelCapacity) {
    PriorityQueue q(2, 1, [](const Packet& p) { return std::uint64_t{p.bytes[0]}; });
    EXPECT_TRUE(q.enqueue(make_test_packet(10, 0)));
    EXPECT_FALSE(q.enqueue(make_test_packet(10, 0)));  // level 0 full
    EXPECT_TRUE(q.enqueue(make_test_packet(10, 1)));   // level 1 still open
}

// --- FairQueue -----------------------------------------------------------

TEST(FairQueue, InterleavesCompetingFlows) {
    FairQueue q(64, 100, [](const Packet& p) { return std::uint64_t{p.bytes[0]}; });
    // Flow 0 dumps 6 packets, flow 1 dumps 2; service should alternate.
    for (int i = 0; i < 6; ++i) q.enqueue(make_test_packet(100, 0));
    for (int i = 0; i < 2; ++i) q.enqueue(make_test_packet(100, 1));
    std::vector<int> service;
    while (auto p = q.dequeue()) service.push_back(p->bytes[0]);
    ASSERT_EQ(service.size(), 8u);
    // Within the first four dequeues both flows must appear.
    const int flow1_in_first4 =
        static_cast<int>(std::count(service.begin(), service.begin() + 4, 1));
    EXPECT_GE(flow1_in_first4, 1);
}

TEST(FairQueue, SoftStateEvaporatesWithBacklog) {
    FairQueue q(64, 1500, [](const Packet& p) { return std::uint64_t{p.bytes[0]}; });
    q.enqueue(make_test_packet(10, 0));
    q.enqueue(make_test_packet(10, 1));
    EXPECT_EQ(q.active_flows(), 2u);
    q.dequeue();
    q.dequeue();
    EXPECT_EQ(q.active_flows(), 0u) << "drained flows must leave no state";
}

TEST(FairQueue, PerFlowCapacityIsolatesHog) {
    FairQueue q(4, 1500, [](const Packet& p) { return std::uint64_t{p.bytes[0]}; });
    for (int i = 0; i < 10; ++i) q.enqueue(make_test_packet(10, 0));  // hog
    EXPECT_TRUE(q.enqueue(make_test_packet(10, 1)));  // victim still fits
    EXPECT_EQ(q.stats().dropped, 6u);
}

TEST(FairQueue, QuantumSmallerThanPacketStillProgresses) {
    FairQueue q(8, 10, [](const Packet&) { return 0ull; });  // quantum 10 < packet 100
    q.enqueue(make_test_packet(100, 7));
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->bytes[0], 7);
}

// --- PointToPointLink -------------------------------------------------------

struct P2pFixture : ::testing::Test {
    sim::Simulator sim;
    util::Rng rng{1};
};

TEST_F(P2pFixture, DeliversWithRateAndPropagationDelay) {
    LinkParams params;
    params.bits_per_second = 8'000'000;        // 1 byte/us
    params.propagation_delay = sim::microseconds(100);
    PointToPointLink link(sim, rng, params);

    sim::Time delivered_at;
    link.port_b().set_receiver([&](Packet) { delivered_at = sim.now(); });
    link.port_a().send(make_test_packet(1000), {});
    sim.run();
    // 1000 bytes at 1 byte/us = 1ms transmission + 100us propagation.
    EXPECT_EQ(delivered_at, sim::microseconds(1100));
}

TEST_F(P2pFixture, SerializesBackToBackPackets) {
    LinkParams params;
    params.bits_per_second = 8'000'000;
    params.propagation_delay = sim::Time(0);
    PointToPointLink link(sim, rng, params);

    std::vector<sim::Time> arrivals;
    link.port_b().set_receiver([&](Packet) { arrivals.push_back(sim.now()); });
    link.port_a().send(make_test_packet(1000), {});
    link.port_a().send(make_test_packet(1000), {});
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1] - arrivals[0], sim::milliseconds(1))
        << "second packet must wait for the first to clock out";
}

TEST_F(P2pFixture, DuplexDirectionsAreIndependent) {
    PointToPointLink link(sim, rng, presets::ethernet_hop());
    int a_received = 0, b_received = 0;
    link.port_a().set_receiver([&](Packet) { ++a_received; });
    link.port_b().set_receiver([&](Packet) { ++b_received; });
    link.port_a().send(make_test_packet(100), {});
    link.port_b().send(make_test_packet(100), {});
    sim.run();
    EXPECT_EQ(a_received, 1);
    EXPECT_EQ(b_received, 1);
}

TEST_F(P2pFixture, RandomLossDropsExpectedFraction) {
    LinkParams params = presets::ethernet_hop();
    params.drop_probability = 0.3;
    PointToPointLink link(sim, rng, params);
    int received = 0;
    link.port_b().set_receiver([&](Packet) { ++received; });
    constexpr int kPackets = 2000;
    for (int i = 0; i < kPackets; ++i) {
        link.port_a().send(make_test_packet(50), {});
        sim.run();
    }
    EXPECT_NEAR(static_cast<double>(received) / kPackets, 0.7, 0.05);
    EXPECT_EQ(link.stats_a_to_b().packets_lost,
              static_cast<std::uint64_t>(kPackets - received));
}

TEST_F(P2pFixture, BitErrorsCorruptPayloadBytes) {
    LinkParams params = presets::ethernet_hop();
    params.bit_error_rate = 1e-3;  // virtually every 1000-byte packet hit
    PointToPointLink link(sim, rng, params);
    int corrupted = 0, received = 0;
    link.port_b().set_receiver([&](Packet p) {
        ++received;
        for (auto b : p.bytes) {
            if (b != 0xab) {
                ++corrupted;
                break;
            }
        }
    });
    for (int i = 0; i < 50; ++i) {
        link.port_a().send(make_test_packet(1000), {});
        sim.run();
    }
    EXPECT_EQ(received, 50);
    EXPECT_GT(corrupted, 40) << "high BER must corrupt most packets";
    EXPECT_EQ(link.stats_a_to_b().packets_corrupted,
              static_cast<std::uint64_t>(corrupted));
}

TEST_F(P2pFixture, DownLinkLosesInFlightAndBlocksSends) {
    LinkParams params = presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(10);
    PointToPointLink link(sim, rng, params);
    int received = 0;
    link.port_b().set_receiver([&](Packet) { ++received; });
    link.port_a().send(make_test_packet(100), {});
    sim.run_until(sim::microseconds(500));  // transmitted, still propagating
    link.set_up(false);
    sim.run();
    EXPECT_EQ(received, 0);
    link.port_a().send(make_test_packet(100), {});
    sim.run();
    EXPECT_EQ(received, 0);
    EXPECT_EQ(link.port_a().stats().send_failures, 1u);
    link.set_up(true);
    link.port_a().send(make_test_packet(100), {});
    sim.run();
    EXPECT_EQ(received, 1);
}

TEST_F(P2pFixture, JitterVariesDelay) {
    LinkParams params = presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(1);
    params.jitter = sim::milliseconds(10);
    PointToPointLink link(sim, rng, params);
    std::vector<double> delays;
    sim::Time sent;
    link.port_b().set_receiver([&](Packet) {
        delays.push_back((sim.now() - sent).millis());
    });
    for (int i = 0; i < 100; ++i) {
        sent = sim.now();
        link.port_a().send(make_test_packet(10), {});
        sim.run();
    }
    const auto [min_it, max_it] = std::minmax_element(delays.begin(), delays.end());
    EXPECT_GT(*max_it - *min_it, 2.0) << "jitter must spread delivery times";
}

// --- Lan ---------------------------------------------------------------------

struct LanFixture : ::testing::Test {
    sim::Simulator sim;
    util::Rng rng{2};
    LanParams params = presets::ethernet_lan();
};

TEST_F(LanFixture, UnicastReachesOnlyAddressee) {
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    auto& p2 = lan.add_port();
    lan.register_address(util::Ipv4Address(10, 0, 0, 1), 0);
    lan.register_address(util::Ipv4Address(10, 0, 0, 2), 1);
    lan.register_address(util::Ipv4Address(10, 0, 0, 3), 2);
    int got1 = 0, got2 = 0;
    p1.set_receiver([&](Packet) { ++got1; });
    p2.set_receiver([&](Packet) { ++got2; });
    (void)p0;
    p0.send(make_test_packet(100), util::Ipv4Address(10, 0, 0, 2));
    sim.run();
    EXPECT_EQ(got1, 1);
    EXPECT_EQ(got2, 0);
}

TEST_F(LanFixture, BroadcastReachesEveryoneElse) {
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    auto& p2 = lan.add_port();
    int got0 = 0, got1 = 0, got2 = 0;
    p0.set_receiver([&](Packet) { ++got0; });
    p1.set_receiver([&](Packet) { ++got1; });
    p2.set_receiver([&](Packet) { ++got2; });
    p0.send(make_test_packet(100), util::Ipv4Address{});  // unspecified = broadcast
    sim.run();
    EXPECT_EQ(got0, 0) << "sender must not hear its own frame";
    EXPECT_EQ(got1, 1);
    EXPECT_EQ(got2, 1);
}

TEST_F(LanFixture, UnresolvableNextHopCountsFailure) {
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    lan.add_port();
    p0.send(make_test_packet(100), util::Ipv4Address(1, 2, 3, 4));
    sim.run();
    EXPECT_EQ(p0.stats().send_failures, 1u);
}

TEST_F(LanFixture, SharedMediumSerializesStations) {
    // Two stations transmit simultaneously; arrivals must be spaced by at
    // least the transmission time of one frame.
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    auto& p2 = lan.add_port();
    lan.register_address(util::Ipv4Address(10, 0, 0, 3), 2);
    std::vector<sim::Time> arrivals;
    p2.set_receiver([&](Packet) { arrivals.push_back(sim.now()); });
    p0.send(make_test_packet(1250), util::Ipv4Address(10, 0, 0, 3));  // 1ms at 10Mb/s
    p1.send(make_test_packet(1250), util::Ipv4Address(10, 0, 0, 3));
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_GE((arrivals[1] - arrivals[0]).nanos(),
              sim::microseconds(990).nanos());
}

TEST_F(LanFixture, FrameTakesTheLinksWholeNanosecondSerializationTime) {
    // 155 bytes plus the 2-byte frame header are 1,256 bits: 125,600 ns at
    // 10 Mb/s, then 5 us of propagation. A LAN clocks frames out with the
    // same integer ceiling as LinkParams::transmission_time (a quotient in
    // double, truncated, read 125,599 ns).
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    lan.register_address(util::Ipv4Address(10, 0, 0, 2), 1);
    sim::Time arrival;
    p1.set_receiver([&](Packet) { arrival = sim.now(); });
    p0.send(make_test_packet(155), util::Ipv4Address(10, 0, 0, 2));
    sim.run();
    EXPECT_EQ(arrival.nanos(), 130'600);
}

TEST_F(LanFixture, FrameReachingADownPortOrDeadMediumIsLostAndRecycled) {
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    lan.register_address(util::Ipv4Address(10, 0, 0, 2), 1);
    int got = 0;
    p1.set_receiver([&](Packet) { ++got; });
    // The addressee's port dies while the frame crosses the medium.
    p0.send(make_test_packet(100), util::Ipv4Address(10, 0, 0, 2));
    p1.set_up(false);
    sim.run();
    EXPECT_EQ(lan.channel_stats().packets_lost, 1u);
    EXPECT_EQ(sim.buffer_pool().stats().recycles, 1u);
    // The medium itself dies while a frame crosses it.
    p1.set_up(true);
    p0.send(make_test_packet(100), util::Ipv4Address(10, 0, 0, 2));
    lan.set_up(false);
    sim.run();
    EXPECT_EQ(lan.channel_stats().packets_lost, 2u);
    EXPECT_EQ(sim.buffer_pool().stats().recycles, 2u);
    EXPECT_EQ(got, 0);
}

TEST_F(LanFixture, PreservesPayloadBytes) {
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    lan.register_address(util::Ipv4Address(10, 0, 0, 2), 1);
    util::ByteBuffer sent{1, 2, 3, 4, 5};
    util::ByteBuffer got;
    p1.set_receiver([&](Packet p) { got = p.bytes; });
    p0.send(Packet{sent}, util::Ipv4Address(10, 0, 0, 2));
    sim.run();
    EXPECT_EQ(got, sent);
}

}  // namespace
}  // namespace catenet::link
