// E5 — Cost effectiveness (the paper's goal #5).
//
// Claims: (a) "The headers of Internet packets are fairly long ... and if
// short packets are sent, this overhead is apparent" — the datagram tax is
// per-packet and regressive. (b) "...lost packets are not recovered at the
// network level [so] they must be retransmitted from one end of the
// Internet to the other. This means that the retransmitted packet may
// cross several intervening nets a second time" — end-to-end recovery
// re-buys every hop a loss already consumed.
//
// Part 1 sweeps payload size and reports wire efficiency for UDP and TCP.
// Part 2 puts a lossy hop at each position of a 4-hop path and compares
// the byte-hops each delivered byte costs under end-to-end recovery (TCP
// over stateless gateways) versus hop-by-hop recovery (the VC baseline's
// per-link ARQ). One run per position cannot rank positions (the loss
// draws alone move a run by more than the positions differ), so each
// end-to-end position runs over ten seeds.
#include "app/bulk.h"
#include "common.h"
#include "core/internetwork.h"
#include "link/presets.h"
#include "util/stats.h"
#include "vc/network.h"

using namespace catenet;
using namespace catenet::bench;

namespace {

// --- part 1: header tax -------------------------------------------------

void header_tax() {
    std::printf("[part 1: per-packet header overhead vs payload size]\n");
    Table t({"payload B", "UDP wire B", "UDP efficiency %", "TCP wire B",
             "TCP efficiency %"});
    for (std::size_t payload : {1ul, 8ul, 64ul, 128ul, 256ul, 576ul, 1024ul, 1460ul}) {
        const std::size_t udp_wire = payload + 8 + 20;
        const std::size_t tcp_wire = payload + 20 + 20;
        t.row({fmt_u(payload), fmt_u(udp_wire),
               fmt(100.0 * static_cast<double>(payload) / static_cast<double>(udp_wire), 1),
               fmt_u(tcp_wire),
               fmt(100.0 * static_cast<double>(payload) /
                       static_cast<double>(tcp_wire), 1)});
    }
    t.print();

    // Measured confirmation on the wire: a paced UDP stream of small vs
    // large datagrams over one hop.
    std::printf("\n[measured: 256 kB of application data over one hop]\n");
    Table m({"datagram payload", "app bytes", "wire bytes", "efficiency %"});
    for (std::size_t payload : {8ul, 64ul, 512ul, 1460ul}) {
        core::Internetwork net(5005);
        core::Host& a = net.add_host("a");
        core::Host& b = net.add_host("b");
        net.connect(a, b, link::presets::ethernet_hop());
        net.use_static_routes();
        auto rx = b.udp().bind(1000);
        rx->set_handler([](auto, auto, auto) {});
        auto tx = a.udp().bind_ephemeral();
        const std::size_t total = 256 * 1024;
        for (std::size_t sent = 0; sent < total; sent += payload) {
            tx->send_to(b.address(), 1000, util::ByteBuffer(payload, 1));
            net.run_for(sim::microseconds(1500));
        }
        net.run_for(sim::seconds(1));
        const auto wire = net.total_link_bytes();
        m.row({fmt_u(payload), fmt_u(total), fmt_u(wire),
               fmt(100.0 * static_cast<double>(total) / static_cast<double>(wire), 1)});
    }
    m.print();
}

// --- part 2: where loss recovery happens -----------------------------------

struct RecoveryCost {
    double byte_hops_per_byte;
    bool completed;
};

// End-to-end: TCP over a 4-hop datagram path with loss on hop `lossy_hop`.
RecoveryCost end_to_end(double loss, int lossy_hop, std::uint64_t seed = 5006) {
    core::Internetwork net(seed);
    core::Host& src = net.add_host("src");
    core::Host& dst = net.add_host("dst");
    core::Gateway& g1 = net.add_gateway("g1");
    core::Gateway& g2 = net.add_gateway("g2");
    core::Gateway& g3 = net.add_gateway("g3");

    auto params_for = [&](int hop) {
        auto p = link::presets::ethernet_hop();
        if (hop == lossy_hop) p.drop_probability = loss;
        return p;
    };
    net.connect(src, g1, params_for(0));
    net.connect(g1, g2, params_for(1));
    net.connect(g2, g3, params_for(2));
    net.connect(g3, dst, params_for(3));
    net.use_static_routes();

    constexpr std::uint64_t kBytes = 512 * 1024;
    app::BulkServer server(dst, 21);
    app::BulkSender sender(src, dst.address(), 21, kBytes);
    sender.start();
    net.run_for(sim::seconds(1200));

    RecoveryCost r;
    r.completed = sender.finished();
    r.byte_hops_per_byte = static_cast<double>(net.total_link_bytes()) /
                           static_cast<double>(kBytes);
    return r;
}

// Hop-by-hop: VC network, per-link ARQ repairs each hop locally.
RecoveryCost hop_by_hop(double loss, int lossy_hop) {
    sim::Simulator sim;
    auto params_for = [&](int hop) {
        auto p = link::presets::ethernet_hop();
        if (hop == lossy_hop) p.drop_probability = loss;
        return p;
    };
    vc::LinkArqConfig arq;
    arq.rto = sim::milliseconds(60);
    arq.max_retries = 1000;
    vc::VcHostConfig host_config;
    host_config.frame_payload = 512;
    host_config.arq = arq;

    vc::VcNetwork net(sim, 5007);
    const auto s1 = net.add_switch("s1", arq);
    const auto s2 = net.add_switch("s2", arq);
    const auto s3 = net.add_switch("s3", arq);
    const auto h1 = net.add_host(1, "src", host_config);
    const auto h2 = net.add_host(2, "dst", host_config);
    net.connect_host(h1, s1, params_for(0));
    net.connect_switches(s1, s2, params_for(1));
    net.connect_switches(s2, s3, params_for(2));
    net.connect_host(h2, s3, params_for(3));
    net.compute_routes();

    constexpr std::uint64_t kBytes = 512 * 1024;
    std::uint64_t delivered = 0;
    net.host_at(h2).set_incoming_handler([&](std::shared_ptr<vc::VcCall> call) {
        call->on_data = [&](std::span<const std::uint8_t> d) { delivered += d.size(); };
    });
    auto call = net.host_at(h1).place_call(2);
    std::uint64_t queued = 0;
    sim::PeriodicTimer source(sim, [&] {
        if (call->state() == vc::CallState::Connected && queued < kBytes) {
            call->send(util::ByteBuffer(4096, 0x42));
            queued += 4096;
        }
    });
    source.start(sim::milliseconds(10));
    sim.run_until(sim::seconds(1200));
    source.stop();

    RecoveryCost r;
    r.completed = delivered >= kBytes;
    r.byte_hops_per_byte = static_cast<double>(net.total_link_bytes()) /
                           static_cast<double>(kBytes);
    return r;
}

void recovery_cost() {
    std::printf("\n[part 2: byte-hops spent per delivered byte, 4-hop path,\n"
                " 5%% loss placed on one hop; end-to-end (TCP) vs hop-by-hop (VC ARQ)]\n");
    constexpr int kSeeds = 10;
    std::printf(" e2e: mean and range over seeds 5006..%d\n", 5006 + kSeeds - 1);
    Table t({"lossy hop", "e2e byte-hops/B", "e2e range", "hop-by-hop byte-hops/B",
             "e2e penalty vs hop 0"});
    double e2e_hop0 = 0;
    for (int hop = 0; hop < 4; ++hop) {
        util::RunningStats e2e;
        for (int i = 0; i < kSeeds; ++i) {
            e2e.add(end_to_end(0.05, hop, 5006 + static_cast<std::uint64_t>(i))
                        .byte_hops_per_byte);
        }
        const auto hbh = hop_by_hop(0.05, hop);
        if (hop == 0) e2e_hop0 = e2e.mean();
        t.row({std::to_string(hop), fmt(e2e.mean(), 3),
               fmt(e2e.min(), 3) + "-" + fmt(e2e.max(), 3), fmt(hbh.byte_hops_per_byte, 3),
               fmt(e2e.mean() - e2e_hop0, 3)});
    }
    t.print();

    std::printf("\n[loss-rate sweep, loss on the last hop (worst case for e2e)]\n");
    Table s({"loss %", "e2e byte-hops/B", "hop-by-hop byte-hops/B"});
    for (double loss : {0.0, 0.01, 0.03, 0.05, 0.10}) {
        const auto e2e = end_to_end(loss, 3);
        const auto hbh = hop_by_hop(loss, 3);
        s.row({fmt(loss * 100, 0), fmt(e2e.byte_hops_per_byte, 3),
               fmt(hbh.byte_hops_per_byte, 3)});
    }
    s.print();
}

}  // namespace

int main() {
    banner("E5 — the costs of the datagram architecture",
           "40 bytes of header tax every packet (regressive for small ones); "
           "end-to-end retransmission re-crosses nets the packet already "
           "crossed, where hop-by-hop recovery would pay only the lossy hop");
    header_tax();
    recovery_cost();
    verdict(
        "headers take >80% of the wire for 8-byte payloads and <3% at full "
        "MSS, exactly the regressive tax the paper concedes. With loss on "
        "the last hop, end-to-end recovery pays ~4 hops per retransmitted "
        "byte while hop-by-hop pays ~1 — the architecture deliberately "
        "accepts this cost to keep gateways stateless (goals 1 and 7 beat "
        "goal 5 in the priority order).");
    return 0;
}
