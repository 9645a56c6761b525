// Event-engine benchmarks: the scheduling hot path that bounds the
// simulated packets-per-second of every experiment. Three regimes:
//
//   BM_ScheduleCancel  — schedule + cancel against a standing backlog,
//                        the TCP-retransmission-timer pattern (armed on
//                        every segment, cancelled by almost every ack).
//   BM_TimerWheelChurn — a population of sim::Timers re-armed round-robin,
//                        the protocol-timer steady state of a large net.
//   BM_ForwardPps      — end-to-end: one datagram pushed through an N-hop
//                        chain of real ip::IpStack gateways per iteration;
//                        items/sec is simulated forwarded-packets/sec.
//   BM_ForwardBurst    — N back-to-back datagrams through one gateway on a
//                        long fat link per iteration: the wire regime where
//                        whole trains are in flight at once and the egress
//                        queue holds a backlog. Deliberately expressed in
//                        params every engine generation understands, so the
//                        same source A/Bs across trees (bench/ab_compare.sh).
//   BM_TcpGoodput      — bulk TCP transfer over an established connection
//                        across 1- and 4-link paths at several MSS values;
//                        bytes/sec is simulated TCP goodput.
//   BM_TcpConnChurn    — full connect/transfer-nothing/close lifecycle per
//                        iteration: handshake, FIN exchange, TIME-WAIT.
//
// Run via the `bench` target, which emits BENCH_engine.json.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/internetwork.h"
#include "ip/protocols.h"
#include "link/presets.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/tcp.h"
#include "telemetry/counters.h"

namespace {

using namespace catenet;

// Folds the run's nonzero network counter totals into the benchmark's user
// counters, so BENCH_engine.json carries packet-level accounting (segments,
// retransmits, forwards, prediction hits) alongside the timing.
void export_network_counters(benchmark::State& state, const core::Internetwork& net) {
    const telemetry::CounterBlock totals = net.metrics().totals();
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const auto c = static_cast<telemetry::Counter>(i);
        if (totals.get(c) == 0) continue;
        state.counters[std::string("net.") + telemetry::counter_name(c)] =
            static_cast<double>(totals.get(c));
    }
}

// Capture bulky enough (40 bytes) to defeat libstdc++'s tiny SSO buffer in
// std::function yet fit the engine's 64-byte inline-callback storage: the
// exact size class the schedule path must never heap-allocate for.
struct FatCapture {
    std::uint64_t a, b, c, d;
    std::uint64_t* sink;
};

void BM_ScheduleCancel(benchmark::State& state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    FatCapture fat{1, 2, 3, 4, &sink};
    // Standing backlog so heap pushes pay a realistic log(n).
    const std::int64_t horizon = 1'000'000'000'000;  // far future
    for (int i = 0; i < 1000; ++i) {
        sim.schedule_at(sim::Time(horizon + i), [fat] { *fat.sink += fat.a; });
    }
    for (auto _ : state) {
        auto id = sim.schedule_after(sim::milliseconds(200),
                                     [fat] { *fat.sink += fat.b; });
        sim.cancel(id);
        benchmark::DoNotOptimize(id);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ScheduleCancel);

void BM_TimerWheelChurn(benchmark::State& state) {
    sim::Simulator sim;
    std::uint64_t fires = 0;
    std::vector<std::unique_ptr<sim::Timer>> timers;
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    timers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        timers.push_back(std::make_unique<sim::Timer>(sim, [&fires] { ++fires; }));
        timers.back()->schedule(sim::milliseconds(100 + static_cast<std::int64_t>(i)));
    }
    std::size_t next = 0;
    for (auto _ : state) {
        // Re-arm one pending timer per op: the ack-advances-the-RTO pattern.
        timers[next]->schedule(sim::milliseconds(200));
        if (++next == n) {
            next = 0;
            // Let simulated time creep forward so some timers actually fire.
            sim.run_until(sim.now() + sim::microseconds(50));
        }
    }
    benchmark::DoNotOptimize(fires);
}
BENCHMARK(BM_TimerWheelChurn)->Arg(64)->Arg(1024);

void BM_ForwardPps(benchmark::State& state) {
    const int hops = static_cast<int>(state.range(0));
    core::Internetwork net(42);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    std::vector<core::Gateway*> gws;
    for (int i = 0; i < hops; ++i) gws.push_back(&net.add_gateway("g" + std::to_string(i)));
    core::Node* prev = &a;
    for (auto* gw : gws) {
        net.connect(*prev, *gw, link::presets::ethernet_hop());
        prev = gw;
    }
    net.connect(*prev, b, link::presets::ethernet_hop());
    net.use_static_routes();

    std::uint64_t delivered = 0;
    constexpr std::uint8_t kProto = 253;  // RFC 3692 experimental
    b.ip().register_protocol(kProto, [&delivered](const ip::Ipv4Header&,
                                                  std::span<const std::uint8_t>,
                                                  std::size_t) { ++delivered; });
    const std::vector<std::uint8_t> payload(512, 0xab);
    const auto dst = b.address();
    for (auto _ : state) {
        a.ip().send(kProto, dst, payload);
        net.sim().run();  // drain: full store-and-forward path per op
    }
    if (delivered != static_cast<std::uint64_t>(state.iterations())) {
        state.SkipWithError("datagrams lost in forwarding chain");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["hops"] = static_cast<double>(hops);
    export_network_counters(state, net);
}
BENCHMARK(BM_ForwardPps)->Arg(1)->Arg(4)->Arg(8);

void BM_ForwardBurst(benchmark::State& state) {
    const int wave = static_cast<int>(state.range(0));
    core::Internetwork net(42);
    core::Host& a = net.add_host("a");
    core::Gateway& gw = net.add_gateway("gw");
    core::Host& b = net.add_host("b");
    // 100 Mb/s with 2 ms of propagation: tx(532B) = 42.56us, so a 32-deep
    // wave is entirely in flight before the first datagram lands — the
    // sustained-run regime, as opposed to BM_ForwardPps's one-at-a-time
    // store-and-forward.
    link::LinkParams wan;
    wan.bits_per_second = 100'000'000;
    wan.propagation_delay = sim::milliseconds(2);
    wan.queue_capacity_packets = 64;
    net.connect(a, gw, wan);
    net.connect(gw, b, wan);
    net.use_static_routes();

    std::uint64_t delivered = 0;
    constexpr std::uint8_t kProto = 253;
    b.ip().register_protocol(kProto, [&delivered](const ip::Ipv4Header&,
                                                  std::span<const std::uint8_t>,
                                                  std::size_t) { ++delivered; });
    const std::vector<std::uint8_t> payload(512, 0xab);
    const auto dst = b.address();
    for (auto _ : state) {
        for (int i = 0; i < wave; ++i) a.ip().send(kProto, dst, payload);
        net.sim().run();
    }
    const auto expected =
        static_cast<std::uint64_t>(state.iterations()) * static_cast<std::uint64_t>(wave);
    if (delivered != expected) {
        state.SkipWithError("datagrams lost in train forwarding");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(expected));
    export_network_counters(state, net);
}
BENCHMARK(BM_ForwardBurst)->Arg(1)->Arg(32);

// Builds an a — (links-1 gateways) — b chain and returns it ready to run.
struct TcpPath {
    explicit TcpPath(int links) : net(1988) {
        core::Host& host_a = net.add_host("a");
        core::Host& host_b = net.add_host("b");
        core::Node* prev = &host_a;
        for (int i = 0; i < links - 1; ++i) {
            core::Gateway& gw = net.add_gateway("g" + std::to_string(i));
            net.connect(*prev, gw, link::presets::ethernet_hop());
            prev = &gw;
        }
        net.connect(*prev, host_b, link::presets::ethernet_hop());
        net.use_static_routes();
        a = &host_a;
        b = &host_b;
    }
    core::Internetwork net;
    core::Host* a;
    core::Host* b;
};

void BM_TcpGoodput(benchmark::State& state) {
    const int links = static_cast<int>(state.range(0));
    const auto mss = static_cast<std::uint16_t>(state.range(1));
    TcpPath path(links);

    std::uint64_t received = 0;
    tcp::TcpConfig cfg;
    cfg.mss_cap = mss;
    path.b->tcp().listen(
        80,
        [&received](std::shared_ptr<tcp::TcpSocket> s) {
            s->on_data = [&received](std::span<const std::uint8_t> d) {
                received += d.size();
            };
        },
        cfg);
    auto client = path.a->tcp().connect(path.b->address(), 80, cfg);
    path.net.sim().run();
    if (!client->connected()) {
        state.SkipWithError("TCP handshake did not complete");
        return;
    }

    constexpr std::uint64_t kChunk = 256 * 1024;
    const std::vector<std::uint8_t> block(16 * 1024, 0x5a);
    std::uint64_t queued = 0;
    std::uint64_t goal = 0;
    auto pump = [&] {
        while (queued < goal) {
            const std::size_t want =
                std::min<std::uint64_t>(block.size(), goal - queued);
            const auto accepted = client->send(
                std::span<const std::uint8_t>(block.data(), want));
            queued += accepted;
            if (accepted < want) break;
        }
    };
    client->on_send_space = pump;

    for (auto _ : state) {
        goal += kChunk;
        pump();
        path.net.sim().run();
        if (received != goal) {
            state.SkipWithError("bytes lost in bulk transfer");
            return;
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(state.iterations()) * kChunk));
    state.counters["links"] = static_cast<double>(links);
    state.counters["mss"] = static_cast<double>(mss);
    export_network_counters(state, path.net);
}
BENCHMARK(BM_TcpGoodput)
    ->Args({1, 536})
    ->Args({1, 1460})
    ->Args({4, 536})
    ->Args({4, 1460});

// N concurrent bulk connections interleaved through one shared gateway:
// the regime where segments of different connections interleave at every
// receiver. Aggregate goodput over all connections is the reported byte
// rate.
void BM_TcpManyConns(benchmark::State& state) {
    const int conns = static_cast<int>(state.range(0));
    TcpPath path(2);  // a — g0 — b: every connection shares the middle hop

    std::uint64_t received = 0;
    tcp::TcpConfig cfg;
    path.b->tcp().listen(
        80,
        [&received](std::shared_ptr<tcp::TcpSocket> s) {
            s->on_data = [&received](std::span<const std::uint8_t> d) {
                received += d.size();
            };
        },
        cfg);

    struct Conn {
        std::shared_ptr<tcp::TcpSocket> socket;
        std::uint64_t queued = 0;
        std::uint64_t goal = 0;
    };
    std::vector<Conn> c(static_cast<std::size_t>(conns));
    const std::vector<std::uint8_t> block(16 * 1024, 0x5a);
    for (auto& conn : c) {
        conn.socket = path.a->tcp().connect(path.b->address(), 80, cfg);
        Conn* cp = &conn;  // stable: the vector never grows after this loop
        conn.socket->on_send_space = [cp, &block] {
            while (cp->queued < cp->goal) {
                const std::size_t want = std::min<std::uint64_t>(
                    block.size(), cp->goal - cp->queued);
                const auto accepted = cp->socket->send(
                    std::span<const std::uint8_t>(block.data(), want));
                cp->queued += accepted;
                if (accepted < want) break;
            }
        };
    }
    path.net.sim().run();
    for (const auto& conn : c) {
        if (!conn.socket->connected()) {
            state.SkipWithError("TCP handshake did not complete");
            return;
        }
    }

    constexpr std::uint64_t kChunkPerConn = 32 * 1024;
    std::uint64_t goal_total = 0;
    for (auto _ : state) {
        for (auto& conn : c) {
            conn.goal += kChunkPerConn;
            conn.socket->on_send_space();
        }
        goal_total += kChunkPerConn * static_cast<std::uint64_t>(conns);
        path.net.sim().run();
        if (received != goal_total) {
            state.SkipWithError("bytes lost in bulk transfer");
            return;
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(goal_total));
    state.counters["conns"] = static_cast<double>(conns);
    export_network_counters(state, path.net);
}
BENCHMARK(BM_TcpManyConns)->Arg(8)->Arg(64);

void BM_TcpConnChurn(benchmark::State& state) {
    TcpPath path(1);
    tcp::TcpConfig cfg;
    path.b->tcp().listen(
        80,
        [](std::shared_ptr<tcp::TcpSocket> s) {
            // Raw capture: a strong self-capture would cycle and leak.
            s->on_remote_close = [raw = s.get()] { raw->close(); };
        },
        cfg);
    for (auto _ : state) {
        bool closed = false;
        auto client = path.a->tcp().connect(path.b->address(), 80, cfg);
        client->on_connected = [&client] { client->close(); };
        client->on_closed = [&closed] { closed = true; };
        path.net.sim().run();  // handshake, FIN exchange, 2MSL TIME-WAIT
        if (!closed) {
            state.SkipWithError("connection did not complete its lifecycle");
            return;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcpConnChurn);

}  // namespace

BENCHMARK_MAIN();
