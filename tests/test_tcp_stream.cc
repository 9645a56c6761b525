// TCP byte-stream integrity over the one send loop (DESIGN.md §12). Every
// scenario moves a patterned stream a -> gw -> b and checks that the bytes
// the receiving application saw are exactly the bytes the sender's
// application wrote, in order — not just the count. The pattern has a
// prime length, so segment and chunk boundaries drift across it and a
// misplaced, duplicated or corrupted byte shows.
//
// The scenarios walk the send loop's edges: a receive window smaller than
// a flight, FIN and PSH on close, first-hop loss, bit errors (the link
// must clear the checksum vouch it corrupts, or the receiver would skip
// the verification that catches them), segments reordered by jitter,
// foreign datagrams interleaved with the data, zero-window stalls carried
// by persist probes, and an exact replay of the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/internetwork.h"
#include "ip/ip_stack.h"
#include "link/point_to_point.h"
#include "sim/time.h"
#include "tcp/tcp.h"
#include "telemetry/counters.h"
#include "telemetry/flight_recorder.h"

namespace catenet {
namespace {

constexpr std::uint8_t kForeignProto = 253;  // RFC 3692 experimental

/// The sender's stream is this pattern repeated; 65521 is prime.
constexpr std::size_t kPatternBytes = 65521;

std::vector<std::uint8_t> make_pattern() {
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    std::vector<std::uint8_t> bytes(kPatternBytes);
    for (std::uint8_t& b : bytes) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        b = static_cast<std::uint8_t>(state >> 24);
    }
    return bytes;
}

// Fast and long enough that whole flights of segments are in flight at
// once: tx(1500B) = 120us at 100 Mb/s, 2 ms of propagation.
link::LinkParams wan() {
    link::LinkParams p;
    p.bits_per_second = 100'000'000;
    p.propagation_delay = sim::milliseconds(2);
    p.queue_capacity_packets = 64;
    return p;
}

struct Knobs {
    std::uint64_t goal = 256 * 1024;   ///< app bytes to transfer a -> b
    double drop = 0.0;                 ///< first-hop drop probability
    double ber = 0.0;                  ///< first-hop bit error rate
    sim::Time jitter;                  ///< first-hop extra delay, up to this
    std::size_t recv_buffer = 64 * 1024;
    bool close_after = false;          ///< sender closes once goal is queued
    bool interleave_foreign = false;   ///< lace datagrams into the data
    bool zero_window = false;          ///< manual receive, slow drain, probes
};

/// Everything the simulation lets an experimenter observe. The wire
/// digest streams record (FNV-1a, size) of every packet delivered up each
/// host's interface, in delivery order.
struct Observation {
    std::vector<std::uint8_t> received;  ///< app bytes b read, in order
    telemetry::CounterBlock counters;
    std::uint64_t foreign = 0;           ///< interleaved datagrams seen at b
    std::uint64_t link_bytes = 0;
    bool client_closed = false;
    std::string recorder;                ///< FlightRecorder::merged(), every node
    std::vector<std::uint64_t> wire_at_b;  ///< digest stream into b (data dir)
    std::vector<std::uint64_t> wire_at_a;  ///< digest stream into a (ACK dir)
    std::vector<std::uint64_t> socket_stats;
    std::uint64_t counted_at_b = 0;       ///< b's socket's bytes_received
    std::uint64_t out_of_order_at_b = 0;  ///< segments b held for reassembly

    bool operator==(const Observation&) const = default;
};

void append_socket(std::vector<std::uint64_t>& out, const tcp::TcpSocketStats& s) {
    out.insert(out.end(),
               {s.segments_sent, s.segments_received, s.bytes_sent, s.bytes_received,
                s.retransmitted_segments, s.retransmitted_bytes, s.timeouts,
                s.fast_retransmits, s.duplicate_acks_received, s.out_of_order_segments});
}

Observation run_stream(const Knobs& k) {
    core::Internetwork net(2026);
    core::Host& a = net.add_host("a");
    core::Gateway& gw = net.add_gateway("gw");
    core::Host& b = net.add_host("b");
    link::LinkParams first = wan();
    first.drop_probability = k.drop;
    first.bit_error_rate = k.ber;
    first.jitter = k.jitter;
    net.connect(a, gw, first);  // impairments confined to the first hop
    net.connect(gw, b, wan());
    net.use_static_routes();

    telemetry::FlightRecorder& rec = net.attach_flight_recorder();

    Observation obs;
    a.ip().interface(0).set_wire_tap(
        [&obs](std::uint64_t digest, std::uint32_t size) {
            obs.wire_at_a.push_back(digest);
            obs.wire_at_a.push_back(size);
        });
    b.ip().interface(0).set_wire_tap(
        [&obs](std::uint64_t digest, std::uint32_t size) {
            obs.wire_at_b.push_back(digest);
            obs.wire_at_b.push_back(size);
        });
    b.ip().register_protocol(kForeignProto,
                             [&obs](const ip::Ipv4Header&, std::span<const std::uint8_t>,
                                    std::size_t) { ++obs.foreign; });

    tcp::TcpConfig cfg;
    cfg.recv_buffer = k.recv_buffer;

    std::shared_ptr<tcp::TcpSocket> server;
    b.tcp().listen(
        80,
        [&](std::shared_ptr<tcp::TcpSocket> s) {
            server = s;
            if (k.zero_window) {
                s->set_manual_receive(true);
            } else {
                s->on_data = [&obs](std::span<const std::uint8_t> d) {
                    obs.received.insert(obs.received.end(), d.begin(), d.end());
                };
            }
            s->on_remote_close = [raw = s.get()] { raw->close(); };
        },
        cfg);
    auto client = a.tcp().connect(b.address(), 80, cfg);
    client->on_closed = [&obs] { obs.client_closed = true; };
    net.sim().run();
    EXPECT_TRUE(client->connected()) << "handshake did not complete";

    // The stream is the pattern repeated; writes of at most 16 KiB stop at
    // the pattern's end, so their boundaries wander too.
    const std::vector<std::uint8_t> pattern = make_pattern();
    std::uint64_t queued = 0;
    auto pump = [&] {
        while (queued < k.goal) {
            const std::size_t off = queued % kPatternBytes;
            const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
                {16 * 1024, kPatternBytes - off, k.goal - queued}));
            const std::size_t accepted =
                client->send(std::span<const std::uint8_t>(pattern.data() + off, want));
            queued += accepted;
            if (accepted < want) return;
        }
        if (k.close_after) {
            client->close();
            client->on_send_space = nullptr;
        }
    };
    client->on_send_space = pump;

    if (k.interleave_foreign) {
        // Foreign datagrams timed to land among the data segments at b.
        const util::ByteBuffer noise(512, 0xab);
        for (int i = 1; i <= 40; ++i) {
            net.sim().schedule_after(sim::milliseconds(2 * i), [&a, &b, noise] {
                a.ip().send(kForeignProto, b.address(), noise);
            });
        }
    }
    if (k.zero_window) {
        // Drain 1 KB every 1.2 s — slower than the 1 s persist interval,
        // so the advertised window genuinely closes and the transfer is
        // carried across zero-window stalls by persist probes.
        for (int i = 1; i <= 120; ++i) {
            net.sim().schedule_after(
                sim::milliseconds(1200) * i, [&server, &obs] {
                    if (server == nullptr) return;
                    std::array<std::uint8_t, 1024> buf;
                    const std::size_t n = server->read(buf);
                    obs.received.insert(obs.received.end(), buf.begin(),
                                        buf.begin() + static_cast<std::ptrdiff_t>(n));
                });
        }
    }

    pump();
    net.sim().run();

    obs.counters = net.metrics().totals();
    obs.link_bytes = net.total_link_bytes();
    EXPECT_EQ(rec.total_overwritten(), 0u);
    obs.recorder = rec.merged();
    append_socket(obs.socket_stats, client->stats());
    if (server != nullptr) {
        append_socket(obs.socket_stats, server->stats());
        obs.counted_at_b = server->stats().bytes_received;
        obs.out_of_order_at_b = server->stats().out_of_order_segments;
    }
    return obs;
}

/// The receiver read the whole stream, and byte for byte what was sent,
/// and its socket counted exactly those bytes.
void expect_stream_intact(const Observation& obs, const Knobs& k) {
    ASSERT_EQ(obs.received.size(), k.goal);
    EXPECT_EQ(obs.counted_at_b, k.goal);
    const std::vector<std::uint8_t> pattern = make_pattern();
    for (std::size_t i = 0; i < obs.received.size(); ++i) {
        if (obs.received[i] != pattern[i % kPatternBytes]) {
            FAIL() << "received byte " << i << " differs from the sender's";
        }
    }
}

TEST(TcpStream, BulkTransferDeliversTheSendersBytes) {
    const Knobs k;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
}

TEST(TcpStream, SameSeedReplaysExactly) {
    const Knobs k;
    const Observation first = run_stream(k);
    const Observation second = run_stream(k);
    EXPECT_EQ(first, second);
}

TEST(TcpStream, ReceiveWindowSmallerThanAFlight) {
    // An 8 KB advertised window, about five segments: the usable-window
    // clamp cuts every flight short, over and over.
    Knobs k;
    k.recv_buffer = 8 * 1024;
    k.goal = 64 * 1024;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
}

TEST(TcpStream, FinChasesTheLastWrite) {
    // The sender closes the moment the last byte is queued: the segment
    // that drains the send buffer carries PSH, the FIN chases it, and the
    // full close handshake completes.
    Knobs k;
    k.goal = 64 * 1024;
    k.close_after = true;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
    EXPECT_TRUE(obs.client_closed) << "full close handshake did not complete";
}

TEST(TcpStream, FirstHopLossIsRepaired) {
    // 2% first-hop loss: lost spans are re-read from the send ring and
    // re-sent until the stream is whole.
    Knobs k;
    k.goal = 256 * 1024;  // enough crossings that 2% loss always bites
    k.drop = 0.02;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
    EXPECT_GT(obs.counters.get(telemetry::Counter::TcpRetransSegs), 0u)
        << "the lossy scenario never actually lost a segment";
}

TEST(TcpStream, BitErrorsInvalidateTheChecksumVouch) {
    // A bit-error link corrupts segments in flight. The sender vouched for
    // both checksums; the link must clear that vouch when it flips bits,
    // so the receiver verifies, drops every mangled segment, and the
    // retransmissions leave the stream intact. At 1e-5 a full segment is
    // hit 11% of the time, about ten of the transfer's ninety; at 2e-6 a
    // run drew no hit at all about one time in eight.
    Knobs k;
    k.goal = 128 * 1024;
    k.ber = 1e-5;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
    EXPECT_GT(obs.counters.get(telemetry::Counter::TcpDropChecksum) +
                  obs.counters.get(telemetry::Counter::IpDropChecksum),
              0u)
        << "the bit-error link never actually corrupted a segment";
}

TEST(TcpStream, ReorderedSegmentsAreReassembledExactly) {
    // First-hop jitter of up to 1 ms, about eight times a full segment's
    // 120 us serialization, lets later segments overtake earlier ones: the
    // receiver holds each early arrival and delivers it once the gap
    // before it fills.
    Knobs k;
    k.goal = 128 * 1024;
    k.jitter = sim::milliseconds(1);
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
    EXPECT_GT(obs.out_of_order_at_b, 0u) << "the jittery hop never reordered a segment";
}

TEST(TcpStream, ForeignDatagramsInterleaved) {
    // Datagrams of another protocol landing among the data segments take
    // the ordinary dispatch and leave the stream untouched.
    Knobs k;
    k.goal = 128 * 1024;
    k.interleave_foreign = true;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
    EXPECT_EQ(obs.foreign, 40u);
}

TEST(TcpStream, ZeroWindowProbesCarryTheTransfer) {
    // Manual receive with a 1 KB drain every 1.2 s against a 1 s persist
    // interval: the window spends most of the transfer closed, and persist
    // probes keep the connection alive.
    Knobs k;
    k.goal = 16 * 1024;
    k.recv_buffer = 8 * 1024;
    k.zero_window = true;
    const Observation obs = run_stream(k);
    expect_stream_intact(obs, k);
    EXPECT_GT(obs.counters.get(telemetry::Counter::TcpZeroWindowEvents), 0u)
        << "the window never actually closed";
}

}  // namespace
}  // namespace catenet
