// Unit tests for the link layer: queue disciplines, point-to-point channel
// model (rate, delay, loss, corruption), shared LAN.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <random>
#include <utility>

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
    util::BufferPool pool;
    q.flush(pool);
    EXPECT_EQ(q.bytes(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, ZeroCapacityRejected) {
    EXPECT_THROW(DropTailQueue q(0), std::invalid_argument);
}

// Every DropTailQueue slot a port has grown, and every delivery in flight,
// holds one Packet.
static_assert(sizeof(Packet) <= 32);

// DropTailQueue against a std::deque reference under random enqueues
// (random sizes), dequeues and flushes. The capacities straddle the
// ring's first size (8) and its doublings, and the mix swings between
// filling and draining, so the ring grows while its backlog wraps.
class DropTailDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DropTailDifferential, MatchesADequeReference) {
    const std::size_t capacity = GetParam();
    DropTailQueue q(capacity);
    std::deque<std::pair<std::uint32_t, std::size_t>> ref;  // (id, size)
    QueueStats want;
    std::size_t want_bytes = 0;
    std::uint32_t next_id = 0;
    std::mt19937_64 rng(0xd7a11 + capacity);
    const auto expect_state = [&](int step) {
        ASSERT_EQ(q.packets(), ref.size()) << "step " << step;
        ASSERT_EQ(q.bytes(), want_bytes) << "step " << step;
        const QueueStats& got = q.stats();
        ASSERT_EQ(got.enqueued, want.enqueued) << "step " << step;
        ASSERT_EQ(got.dequeued, want.dequeued) << "step " << step;
        ASSERT_EQ(got.dropped, want.dropped) << "step " << step;
        ASSERT_EQ(got.flushed, want.flushed) << "step " << step;
        ASSERT_EQ(got.bytes_enqueued, want.bytes_enqueued) << "step " << step;
        ASSERT_EQ(got.bytes_dropped, want.bytes_dropped) << "step " << step;
    };
    double fill_bias = 0.0;  // the share of enqueues, redrawn every 500 steps
    for (int step = 0; step < 20'000; ++step) {
        if (step % 500 == 0) fill_bias = (rng() % 2 == 0) ? 0.75 : 0.3;
        const double roll = static_cast<double>(rng() % 10'000) / 10'000.0;
        if (roll < 0.0005) {
            util::BufferPool pool(capacity);
            q.flush(pool);
            want.flushed += ref.size();
            ASSERT_EQ(pool.stats().recycles, ref.size()) << "step " << step;
            ref.clear();
            want_bytes = 0;
        } else if (roll < fill_bias) {
            const std::size_t size = 4 + rng() % 600;
            Packet p = make_test_packet(size);
            std::memcpy(p.bytes.data(), &next_id, sizeof next_id);
            const bool admitted = ref.size() < capacity;
            ASSERT_EQ(q.enqueue(std::move(p)), admitted) << "step " << step;
            if (admitted) {
                ref.emplace_back(next_id, size);
                ++want.enqueued;
                want.bytes_enqueued += size;
                want_bytes += size;
            } else {
                // A refused packet stays whole in the caller's hands.
                ASSERT_EQ(p.size(), size) << "step " << step;
                ++want.dropped;
                want.bytes_dropped += size;
            }
            ++next_id;
        } else {
            auto got = q.dequeue();
            if (ref.empty()) {
                ASSERT_FALSE(got.has_value()) << "step " << step;
            } else {
                ASSERT_TRUE(got.has_value()) << "step " << step;
                std::uint32_t id = 0;
                std::memcpy(&id, got->bytes.data(), sizeof id);
                ASSERT_EQ(id, ref.front().first) << "step " << step;
                ASSERT_EQ(got->size(), ref.front().second) << "step " << step;
                want_bytes -= ref.front().second;
                ref.pop_front();
                ++want.dequeued;
            }
        }
        ASSERT_NO_FATAL_FAILURE(expect_state(step));
    }
    // The ring filled to its capacity, and flushes found a backlog.
    EXPECT_GT(want.dropped, 0u);
    EXPECT_GT(want.flushed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, DropTailDifferential,
                         ::testing::Values(1, 7, 8, 9, 64, 300));

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

TEST_F(P2pFixture, DownLinkFlushesItsQueueIntoThePool) {
    // Ten 500-byte datagrams meet a 1 Mb/s wire (4 ms each) and a 6-packet
    // queue: one goes out, six wait, three are refused. Then the link
    // fails. Every datagram handed to send() is accounted for exactly
    // once, and every flushed buffer returns to the simulator's pool.
    LinkParams params;
    params.bits_per_second = 1'000'000;
    params.queue_capacity_packets = 6;
    PointToPointLink link(sim, rng, params);
    link.port_b().set_receiver([](Packet) {});
    constexpr std::uint64_t kSent = 10;
    for (std::uint64_t i = 0; i < kSent; ++i) link.port_a().send(make_test_packet(500), {});
    const QueueStats& q = link.queue_a().stats();
    EXPECT_EQ(q.dropped, 3u);
    EXPECT_EQ(link.queue_a().packets(), 6u);

    const std::uint64_t recycled = sim.buffer_pool().stats().recycles;
    link.set_up(false);
    EXPECT_EQ(q.flushed, 6u);
    EXPECT_EQ(sim.buffer_pool().stats().recycles - recycled, q.flushed);
    sim.run();
    link.port_a().send(make_test_packet(500), {});  // refused: the link is down

    const NetIfStats& port = link.port_a().stats();
    EXPECT_EQ(port.send_failures, 1u);
    EXPECT_EQ(kSent + 1, port.send_failures + q.dropped + q.flushed + port.packets_sent +
                             link.queue_a().packets());
    EXPECT_EQ(q.dropped, 3u) << "a flush is not an admission drop";
    EXPECT_EQ(link.stats_a_to_b().packets_lost, 1u);  // the one on the wire
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

TEST_F(LanFixture, DownPortOrMediumFlushesQueuesIntoThePool) {
    // A LAN port counts packets_sent, bytes_sent and busy_ns when the
    // medium takes a frame, as a point-to-point port counts at
    // transmission, so a flushed frame is never counted as sent. Its queue
    // carries the ledger: enqueued = dequeued + flushed + still queued.
    Lan lan(sim, rng, params);
    auto& p0 = lan.add_port();
    auto& p1 = lan.add_port();
    lan.register_address(util::Ipv4Address(10, 0, 0, 1), 0);
    lan.register_address(util::Ipv4Address(10, 0, 0, 2), 1);
    p0.set_receiver([](Packet) {});
    p1.set_receiver([](Packet) {});
    const auto ledger_holds = [&](std::size_t port) {
        const QueueStats& q = lan.queue(port).stats();
        return q.enqueued == q.dequeued + q.flushed + lan.queue(port).packets();
    };

    // One station fails: the medium took its first frame, nine wait.
    for (int i = 0; i < 10; ++i) p0.send(make_test_packet(500), util::Ipv4Address(10, 0, 0, 2));
    std::uint64_t recycled = sim.buffer_pool().stats().recycles;
    p0.set_up(false);
    EXPECT_EQ(lan.queue(0).stats().flushed, 9u);
    EXPECT_EQ(sim.buffer_pool().stats().recycles - recycled, 9u);
    EXPECT_TRUE(ledger_holds(0));
    // 500 bytes of datagram and the 2-byte LAN header.
    const sim::Time frame_time = serialization_time(502, params.bits_per_second);
    EXPECT_EQ(p0.stats().packets_sent, 1u);
    EXPECT_EQ(p0.stats().bytes_sent, 502u);
    EXPECT_EQ(p0.stats().busy_ns, static_cast<std::uint64_t>(frame_time.nanos()));
    sim.run();

    // The whole medium fails.
    for (int i = 0; i < 10; ++i) p1.send(make_test_packet(500), util::Ipv4Address(10, 0, 0, 1));
    recycled = sim.buffer_pool().stats().recycles;
    lan.set_up(false);
    EXPECT_EQ(lan.queue(1).stats().flushed, 9u);
    EXPECT_EQ(sim.buffer_pool().stats().recycles - recycled, 9u);
    EXPECT_TRUE(ledger_holds(1));
    sim.run();
    EXPECT_EQ(lan.queue(0).stats().dropped + lan.queue(1).stats().dropped, 0u);
    // The medium carried one frame from each station; the one in flight
    // when the medium failed counts as sent and as the LAN's loss.
    EXPECT_EQ(p0.stats().packets_sent, 1u);
    EXPECT_EQ(p1.stats().packets_sent, 1u);
    EXPECT_EQ(p1.stats().bytes_sent, 502u);
    EXPECT_EQ(p1.stats().busy_ns, static_cast<std::uint64_t>(frame_time.nanos()));
    EXPECT_EQ(lan.total_bytes_sent(), 2u * 502u);
    EXPECT_EQ(lan.channel_stats().packets_lost, 1u);
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
