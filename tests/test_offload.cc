// Segmentation-offload tests (DESIGN.md §12). The contract under test:
// GSO (one mega-segment descriptor per transmission opportunity, split
// late at the egress link) is an *optimization*, never a semantic — wire
// bytes, ACK cadence, delivered payloads, traces, flight-recorder
// transcripts, and every counter but the offload diagnostics must be
// identical between an offload-on run and its per-segment twin. The
// Tcp{Gso,Gro}* counters describe how work was batched and are the only
// slots allowed to differ (the same exception class as event counts).
//
// The suite runs one rich bulk-transfer scenario with segmentation_offload
// on and off and diffs the full observation record — including the wire
// digest stream each host's interface delivered, which pins byte-for-byte
// and packet-for-packet wire identity in both directions — then walks the
// edges: mega-segments truncated by cwnd/rwnd mid-build, FIN and PSH
// landing inside a train, corruption under a bit-error link,
// retransmission over GSO-built spans, zero-window stalls with persist
// probes, and foreign datagrams laced into the trains. A final allocation
// test asserts the steady-state GSO build and delivery paths are
// heap-silent.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/internetwork.h"
#include "ip/ip_stack.h"
#include "ip/trace.h"
#include "link/netif.h"
#include "link/packet.h"
#include "link/point_to_point.h"
#include "sim/time.h"
#include "tcp/tcp.h"
#include "telemetry/counters.h"
#include "telemetry/flight_recorder.h"

// Global allocation counter (same per-binary harness as
// test_forward_fastpath.cc):
// counts every operator-new in this binary so the steady-state tests can
// assert the offload paths never touch the heap.
namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// The nothrow forms must be overridden too: libstdc++'s temporary buffers
// (std::inplace_merge in RoutingTable::bulk_load) allocate with
// operator new(nothrow) but release through plain operator delete — if
// only the throwing forms route to malloc, the pairing splits across
// allocators (ASan flags the mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace catenet {
namespace {

constexpr std::uint8_t kForeignProto = 253;  // RFC 3692 experimental

// Fast and long enough that whole segment trains are in flight at once:
// tx(1500B) = 120us at 100 Mb/s, 2 ms of propagation.
link::LinkParams wan() {
    link::LinkParams p;
    p.bits_per_second = 100'000'000;
    p.propagation_delay = sim::milliseconds(2);
    p.queue_capacity_packets = 64;
    return p;
}

/// Zeroes the offload diagnostics — the only counters allowed to differ
/// between an offload-on run and its per-segment twin.
telemetry::CounterBlock mask_offload(telemetry::CounterBlock block) {
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        if (telemetry::offload_diagnostic(static_cast<telemetry::Counter>(i))) {
            block.slots[i] = 0;
        }
    }
    return block;
}

// --- the twin harness ----------------------------------------------------

struct Knobs {
    bool offload = true;
    std::uint64_t goal = 256 * 1024;   ///< app bytes to transfer a -> b
    double drop = 0.0;                 ///< first-hop drop probability
    double ber = 0.0;                  ///< first-hop bit error rate
    std::size_t recv_buffer = 64 * 1024;
    bool close_after = false;          ///< sender closes once goal is queued
    bool interleave_foreign = false;   ///< lace datagrams into the trains
    bool zero_window = false;          ///< manual receive, slow drain, probes
};

/// Everything the simulation lets an experimenter observe, flattened for
/// field-by-field diffing. The wire digest streams record (FNV-1a, size)
/// of every packet delivered up each host's interface, in delivery order:
/// two runs whose streams match put identical bytes on the wire in
/// identical order — the GSO late split is byte-equivalent to per-segment
/// encode, and the ACK cadence (delayed-ACK timing included) is identical.
struct Observation {
    telemetry::CounterBlock counters;
    std::uint64_t delivered = 0;      ///< app payload bytes received at b
    std::uint64_t foreign = 0;        ///< interleaved datagrams seen at b
    std::uint64_t link_bytes = 0;
    bool client_closed = false;
    std::string trace;                ///< TraceCollector::merged(), every node
    std::string recorder;             ///< FlightRecorder::merged(), every node
    std::vector<std::uint64_t> wire_at_b;  ///< digest stream into b (data dir)
    std::vector<std::uint64_t> wire_at_a;  ///< digest stream into a (ACK dir)
    std::vector<std::uint64_t> socket_stats;

    bool operator==(const Observation&) const = default;
};

void append_socket(std::vector<std::uint64_t>& out, const tcp::TcpSocketStats& s) {
    out.insert(out.end(),
               {s.segments_sent, s.segments_received, s.bytes_sent, s.bytes_received,
                s.retransmitted_segments, s.retransmitted_bytes, s.timeouts,
                s.fast_retransmits, s.duplicate_acks_received, s.out_of_order_segments,
                s.fast_path_acks, s.fast_path_data});
}

Observation run_offload_scenario(const Knobs& k) {
    core::Internetwork net(2026);
    core::Host& a = net.add_host("a");
    core::Gateway& gw = net.add_gateway("gw");
    core::Host& b = net.add_host("b");
    link::LinkParams first = wan();
    first.drop_probability = k.drop;
    first.bit_error_rate = k.ber;
    net.connect(a, gw, first);  // impairments confined to the first hop
    net.connect(gw, b, wan());
    net.use_static_routes();

    telemetry::FlightRecorder& rec = net.attach_flight_recorder();
    ip::TraceCollector traces;
    for (core::Node* n : {static_cast<core::Node*>(&a), static_cast<core::Node*>(&gw),
                          static_cast<core::Node*>(&b)}) {
        const std::size_t lane = traces.add_lane(n->name());
        n->ip().set_trace(traces.make_tracer(lane, n->name(), net.sim()));
    }

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
    cfg.segmentation_offload = k.offload;
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
                    obs.delivered += d.size();
                };
            }
            s->on_remote_close = [raw = s.get()] { raw->close(); };
        },
        cfg);
    auto client = a.tcp().connect(b.address(), 80, cfg);
    client->on_closed = [&obs] { obs.client_closed = true; };
    net.sim().run();
    EXPECT_TRUE(client->connected()) << "handshake did not complete";

    const std::vector<std::uint8_t> block(16 * 1024, 0x5a);
    std::uint64_t queued = 0;
    auto pump = [&] {
        while (queued < k.goal) {
            const std::size_t want =
                std::min<std::uint64_t>(block.size(), k.goal - queued);
            const std::size_t accepted =
                client->send(std::span<const std::uint8_t>(block.data(), want));
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
        // Foreign datagrams timed to land inside the data trains at b:
        // each one splits whatever GRO run is open at that slot.
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
                    obs.delivered += server->read(buf);
                });
        }
    }

    pump();
    net.sim().run();

    obs.counters = net.metrics().totals();
    obs.link_bytes = net.total_link_bytes();
    obs.trace = traces.merged();
    obs.recorder = rec.merged();
    append_socket(obs.socket_stats, client->stats());
    if (server != nullptr) append_socket(obs.socket_stats, server->stats());
    return obs;
}

/// Diffs the cheap scalars first so a failure names the surface, then the
/// full record with offload diagnostics masked out.
void expect_twin_equal(const Observation& on, const Observation& off) {
    EXPECT_EQ(on.delivered, off.delivered);
    EXPECT_EQ(on.foreign, off.foreign);
    EXPECT_EQ(on.link_bytes, off.link_bytes);
    EXPECT_EQ(on.client_closed, off.client_closed);
    EXPECT_EQ(on.socket_stats, off.socket_stats);
    EXPECT_EQ(on.wire_at_b, off.wire_at_b) << "data-direction wire stream diverged";
    EXPECT_EQ(on.wire_at_a, off.wire_at_a) << "ACK-direction wire stream diverged";
    EXPECT_EQ(on.trace, off.trace);
    EXPECT_EQ(on.recorder, off.recorder);
    EXPECT_EQ(mask_offload(on.counters).slots, mask_offload(off.counters).slots);
    // Off means off: the per-segment pipeline must not so much as touch
    // the offload machinery.
    EXPECT_EQ(off.counters.get(telemetry::Counter::TcpGsoBuilds), 0u);
    EXPECT_EQ(off.counters.get(telemetry::Counter::TcpGroSegs), 0u);
}

// --- the main twins -------------------------------------------------------

TEST(OffloadTwin, BulkTransferMatchesPerSegmentPipelineEverywhere) {
    Knobs k;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    // The scenario must actually have exercised both halves of the offload.
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpGsoBuilds), 0u)
        << "no mega-segment was ever built";
    EXPECT_GE(on.counters.get(telemetry::Counter::TcpGsoSegs),
              2 * on.counters.get(telemetry::Counter::TcpGsoBuilds))
        << "mega-segments must cover at least two MSS each";
}

TEST(OffloadTwin, OffloadRunReplaysExactly) {
    Knobs k;
    const Observation first = run_offload_scenario(k);
    const Observation second = run_offload_scenario(k);
    EXPECT_EQ(first, second);
}

// --- equivalence edges ----------------------------------------------------

TEST(OffloadEdge, MegaSegmentTruncatedByReceiveWindow) {
    // An 8 KB advertised window caps every build at ~5 MSS: the usable-
    // window clamp trims trains mid-build, over and over.
    Knobs k;
    k.recv_buffer = 8 * 1024;
    k.goal = 64 * 1024;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpGsoBuilds), 0u);
    EXPECT_LE(on.counters.get(telemetry::Counter::TcpGsoSegs),
              5 * on.counters.get(telemetry::Counter::TcpGsoBuilds))
        << "the receive window should have capped every build below 6 segments";
}

TEST(OffloadEdge, FinAndPushInsideTheFinalRun) {
    // The sender closes the moment the last byte is queued: the FIN chases
    // the final train, and every drained train carries PSH on its last
    // segment. Connection teardown is bit-identical either way.
    Knobs k;
    k.goal = 64 * 1024;
    k.close_after = true;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    EXPECT_TRUE(on.client_closed) << "full close handshake did not complete";
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpGsoBuilds), 0u);
}

TEST(OffloadEdge, RetransmissionOverGsoBuiltSpans) {
    // 2% first-hop loss: spans sent as mega-segments are lost and
    // re-sent — retransmission re-reads the ring per wire segment, so
    // recovery must be identical to the per-segment pipeline's.
    Knobs k;
    k.goal = 256 * 1024;  // enough crossings that 2% loss always bites
    k.drop = 0.02;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpRetransSegs), 0u)
        << "the lossy scenario never actually lost a segment";
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpGsoBuilds), 0u);
}

TEST(OffloadEdge, BitErrorsInvalidateTheChecksumVouch) {
    // A bit-error link corrupts segments in flight; maybe_corrupt clears
    // the csum_ok vouch, so the receiver's full checksum verification
    // catches every mangled segment exactly as the per-segment pipeline
    // does — corruption, drop accounting, and recovery are identical.
    Knobs k;
    k.goal = 128 * 1024;
    k.ber = 2e-6;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpDropChecksum) +
                  on.counters.get(telemetry::Counter::IpDropChecksum),
              0u)
        << "the bit-error link never actually corrupted a segment";
}

TEST(OffloadEdge, ForeignDatagramsSplitReceiveRuns) {
    // Datagrams of another protocol landing inside the data trains take
    // the ordinary dispatch between TCP segments — with no effect on
    // anything observable.
    Knobs k;
    k.goal = 128 * 1024;
    k.interleave_foreign = true;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    EXPECT_EQ(on.foreign, 40u);
}

TEST(OffloadEdge, ZeroWindowProbesCarryTheTransfer) {
    // Manual receive with a 1 KB drain every 1.2 s against a 1 s persist
    // interval: the window spends most of the transfer closed, and persist
    // probes keep the connection alive identically in both modes.
    Knobs k;
    k.goal = 16 * 1024;
    k.recv_buffer = 8 * 1024;
    k.zero_window = true;
    const Observation on = run_offload_scenario(k);
    k.offload = false;
    const Observation off = run_offload_scenario(k);
    expect_twin_equal(on, off);
    EXPECT_EQ(on.delivered, k.goal);
    EXPECT_GT(on.counters.get(telemetry::Counter::TcpZeroWindowEvents), 0u)
        << "the window never actually closed";
}

// --- allocation silence ---------------------------------------------------

TEST(OffloadAlloc, SteadyStateGsoBuildAndGroDeliveryAreHeapSilent) {
    core::Internetwork net(7);
    core::Host& a = net.add_host("a");
    core::Gateway& gw = net.add_gateway("gw");
    core::Host& b = net.add_host("b");
    net.connect(a, gw, wan());
    net.connect(gw, b, wan());
    net.use_static_routes();

    std::uint64_t delivered = 0;
    b.tcp().listen(80, [&delivered](std::shared_ptr<tcp::TcpSocket> s) {
        s->on_data = [&delivered](std::span<const std::uint8_t> d) {
            delivered += d.size();
        };
    });
    auto client = a.tcp().connect(b.address(), 80);
    net.sim().run();
    ASSERT_TRUE(client->connected());

    const std::vector<std::uint8_t> block(16 * 1024, 0x5a);
    std::uint64_t queued = 0;
    std::uint64_t goal = 0;
    auto pump = [&] {
        while (queued < goal) {
            const std::size_t want =
                std::min<std::uint64_t>(block.size(), goal - queued);
            const std::size_t accepted =
                client->send(std::span<const std::uint8_t>(block.data(), want));
            queued += accepted;
            if (accepted < want) return;
        }
    };
    client->on_send_space = pump;
    auto wave = [&] {
        goal += 64 * 1024;
        pump();
        net.sim().run();
    };

    // Warm-up: buffer pool, rings, route caches, the event heap — and the
    // engine's far-bucket arena, primed past any high-water mark a wave
    // can reach (same discipline as ForwardTrain.SteadyStateTrainsAreHeapSilent).
    for (int i = 0; i < 256; ++i) {
        net.sim().schedule_after(sim::milliseconds(100 + i), [] {});
    }
    net.sim().run();
    for (int i = 0; i < 5; ++i) wave();

    const telemetry::CounterBlock warm = net.metrics().totals();
    const std::uint64_t before = g_heap_allocs;
    for (int i = 0; i < 10; ++i) wave();
    EXPECT_EQ(g_heap_allocs - before, 0u)
        << "the steady-state offload path allocated";
    const telemetry::CounterBlock after = net.metrics().totals();
    EXPECT_EQ(delivered, 15u * 64u * 1024u);
    // The silent phase must have actually gone through the offload path.
    EXPECT_GT(after.get(telemetry::Counter::TcpGsoBuilds),
              warm.get(telemetry::Counter::TcpGsoBuilds));
}

}  // namespace
}  // namespace catenet
