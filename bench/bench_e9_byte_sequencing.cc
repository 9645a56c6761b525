// E9 — Byte sequencing vs packet sequencing (the paper's §TCP).
//
// Claim: TCP numbers bytes, not packets, because byte sequencing "permits
// the insertion of control information into the sequence space" and —
// decisive here — permits repacketization: "a packet [can] be broken up
// into smaller packets" and "a number of small packets [gathered] together
// into one larger packet" when retransmitting. A packet-sequenced protocol
// is married forever to its original packet boundaries.
//
// Setup: a tinygram-heavy workload (many small application writes) over a
// lossy path. TCP (byte seq, Nagle off so the original transmission is
// equally tiny) recovers from a timeout by rebundling the outstanding
// bytes at full MSS; the packet-sequenced ARQ must resend every original
// tinygram as-is. We count packets on the wire per delivered byte.
#include "common.h"
#include "core/internetwork.h"
#include "link/presets.h"
#include "tcp/simple_arq.h"
#include "tcp/tcp.h"

using namespace catenet;
using namespace catenet::bench;

namespace {

struct SeqResult {
    bool completed;
    std::uint64_t packets_sent;
    std::uint64_t retransmitted;
    double wire_bytes_per_byte;
    double seconds;
};

constexpr std::size_t kWriteSize = 100;   // the application's tinygrams
constexpr std::size_t kWrites = 800;
constexpr std::uint64_t kTotal = kWriteSize * kWrites;

SeqResult run_tcp(double loss, std::uint64_t seed) {
    core::Internetwork net(seed);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(20);
    params.drop_probability = loss;
    net.connect(a, b, params);
    net.use_static_routes();

    std::uint64_t delivered = 0;
    // The stack keeps the accepted socket; a callback that held it would
    // keep it, and itself, alive for good.
    b.tcp().listen(9, [&](std::shared_ptr<tcp::TcpSocket> s) {
        s->on_data = [&delivered](std::span<const std::uint8_t> d) { delivered += d.size(); };
    });
    tcp::TcpConfig cfg;
    cfg.nagle = false;  // level field: first transmission is tinygrams too
    auto client = a.tcp().connect(b.address(), 9, cfg);
    std::size_t written = 0;
    // Paced writes: one tinygram per 5 ms (an instrument stream); retry
    // on send-buffer backpressure.
    sim::PeriodicTimer writer(net.sim(), [&] {
        if (written < kWrites && client->connected()) {
            const util::ByteBuffer chunk(kWriteSize, 0x31);
            if (client->send(chunk) == chunk.size()) ++written;
        }
    });
    writer.start(sim::milliseconds(5));
    net.sim().run_while([&] { return delivered < kTotal && net.sim().now() < sim::seconds(600); });
    writer.stop();

    SeqResult r;
    r.completed = delivered >= kTotal;
    r.packets_sent = client->stats().segments_sent;
    r.retransmitted = client->stats().retransmitted_segments;
    r.wire_bytes_per_byte =
        static_cast<double>(net.total_link_bytes()) / static_cast<double>(kTotal);
    r.seconds = net.sim().now().seconds();
    return r;
}

SeqResult run_packet_seq(double loss, std::uint64_t seed) {
    core::Internetwork net(seed);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(20);
    params.drop_probability = loss;
    net.connect(a, b, params);
    net.use_static_routes();

    std::uint64_t delivered = 0;
    b.arq().listen(9, [&](util::Ipv4Address, std::uint16_t,
                          std::span<const std::uint8_t> d) { delivered += d.size(); });
    tcp::ArqConfig cfg;
    cfg.packet_payload = kWriteSize;  // packetized at write granularity, forever
    cfg.rto = sim::milliseconds(500);
    auto sender = a.arq().create_sender(b.address(), 9, cfg);
    std::size_t written = 0;
    sim::PeriodicTimer writer(net.sim(), [&] {
        if (written < kWrites) {
            // Retry on backpressure: a full send buffer defers the write.
            const util::ByteBuffer chunk(kWriteSize, 0x32);
            if (sender->send(chunk) == chunk.size()) ++written;
        }
    });
    writer.start(sim::milliseconds(5));
    net.sim().run_while([&] { return delivered < kTotal && net.sim().now() < sim::seconds(600); });
    writer.stop();

    SeqResult r;
    r.completed = delivered >= kTotal;
    r.packets_sent = sender->stats().packets_sent;
    r.retransmitted = sender->stats().packets_retransmitted;
    r.wire_bytes_per_byte =
        static_cast<double>(net.total_link_bytes()) / static_cast<double>(kTotal);
    r.seconds = net.sim().now().seconds();
    return r;
}

}  // namespace

int main() {
    banner("E9 — byte-granularity vs packet-granularity sequence numbers",
           "byte sequencing lets retransmissions be repacketized (many lost "
           "tinygrams return as one full-size segment); packet sequencing "
           "must resend every original packet unchanged");

    std::printf("[%zu writes of %zu B each, 40 ms RTT path, loss sweep]\n",
                kWrites, kWriteSize);
    Table t({"loss %", "protocol", "done", "pkts sent", "rexmit pkts",
             "wire B per app B", "time s"});
    for (double loss : {0.0, 0.02, 0.05, 0.10}) {
        const auto tcp_r = run_tcp(loss, 9001 + static_cast<std::uint64_t>(loss * 100));
        const auto arq_r =
            run_packet_seq(loss, 9001 + static_cast<std::uint64_t>(loss * 100));
        t.row({fmt(loss * 100, 0), "TCP (byte seq)", tcp_r.completed ? "yes" : "NO",
               fmt_u(tcp_r.packets_sent), fmt_u(tcp_r.retransmitted),
               fmt(tcp_r.wire_bytes_per_byte, 3), fmt(tcp_r.seconds, 1)});
        t.row({"", "ARQ (packet seq)", arq_r.completed ? "yes" : "NO",
               fmt_u(arq_r.packets_sent), fmt_u(arq_r.retransmitted),
               fmt(arq_r.wire_bytes_per_byte, 3), fmt(arq_r.seconds, 1)});
    }
    t.print();

    verdict(
        "at zero loss the two behave alike. As loss grows, TCP's "
        "retransmissions coalesce the outstanding tinygrams into MSS-sized "
        "segments, so its packet count barely moves; the packet-sequenced "
        "protocol resends tinygrams one for one and its wire cost and "
        "completion time inflate — the paper's repacketization argument, "
        "measured.");
    return 0;
}
