// E8 — Fate-sharing vs replication.
//
// Claim: "the intermediate packet switching nodes, or gateways, must not
// have any essential state information about on-going connections ...
// they are stateless packet switches"; connection state should share fate
// with the endpoints that own it. The alternative — replicating
// connection state inside the network — means every switch crash is a
// connection massacre.
//
// Setup: N concurrent conversations cross one intermediate node. The node
// crashes and restarts. Datagram gateway: count conversations that
// survive, and the bytes of connection state the node held. VC switch:
// same counts.
#include "app/bulk.h"
#include "app/interactive.h"
#include "common.h"
#include "core/internetwork.h"
#include "link/presets.h"
#include "vc/network.h"

using namespace catenet;
using namespace catenet::bench;

namespace {

struct FateResult {
    int survived;
    int total;
    std::size_t state_bytes;  // connection state held in the network node
};

FateResult run_datagram(int connections, double down_seconds) {
    core::Internetwork net(8008);
    core::Host& src = net.add_host("src");
    core::Host& dst = net.add_host("dst");
    core::Gateway& g = net.add_gateway("g");
    net.connect(src, g, link::presets::ethernet_hop());
    net.connect(g, dst, link::presets::ethernet_hop());
    net.use_static_routes();

    // Long-running interactive-style connections (so they idle through
    // the outage rather than finishing early).
    std::vector<std::unique_ptr<app::EchoServer>> servers;
    servers.push_back(std::make_unique<app::EchoServer>(dst, 23));
    std::vector<std::unique_ptr<app::InteractiveClient>> clients;
    std::vector<bool> alive(static_cast<std::size_t>(connections), true);
    for (int i = 0; i < connections; ++i) {
        app::InteractiveConfig ic;
        ic.mean_interkey = sim::milliseconds(500);
        clients.push_back(std::make_unique<app::InteractiveClient>(
            src, dst.address(), 23, ic));
        clients.back()->start();
    }
    net.run_for(sim::seconds(10));

    // The gateway's connection-state footprint: by construction, zero.
    // (Its mutable state is the routing table and queues; neither mentions
    // any connection.)
    const std::size_t gw_state = 0;

    g.set_down(true);
    net.run_for(sim::from_seconds(down_seconds));
    g.set_down(false);
    net.run_for(sim::seconds(60));

    // Survival test: every client types a probe and must get an echo.
    std::vector<std::uint64_t> before;
    before.reserve(clients.size());
    for (auto& c : clients) before.push_back(c->echoes_received());
    net.run_for(sim::seconds(30));
    int survived = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        if (clients[i]->echoes_received() > before[i]) ++survived;
    }
    return FateResult{survived, connections, gw_state};
}

FateResult run_vc(int connections, double down_seconds) {
    sim::Simulator sim;
    vc::VcNetwork net(sim, 8008);
    const auto s = net.add_switch("s");
    const auto h1 = net.add_host(1, "src");
    const auto h2 = net.add_host(2, "dst");
    net.connect_host(h1, s, link::presets::ethernet_hop());
    net.connect_host(h2, s, link::presets::ethernet_hop());
    net.compute_routes();

    // The host keeps each call until it is cleared; a callback that held
    // its own call would keep it, and itself, alive for good.
    net.host_at(h2).set_incoming_handler([](std::shared_ptr<vc::VcCall> call) {
        call->on_data = [](std::span<const std::uint8_t>) {};
    });
    std::vector<std::shared_ptr<vc::VcCall>> calls;
    std::vector<bool> cleared(static_cast<std::size_t>(connections), false);
    for (int i = 0; i < connections; ++i) {
        auto call = net.host_at(h1).place_call(2);
        call->on_cleared = [&cleared, i](std::uint8_t) {
            cleared[static_cast<std::size_t>(i)] = true;
        };
        calls.push_back(call);
    }
    // Periodic chatter on every call (so stalls are detected).
    sim::PeriodicTimer chatter(sim, [&] {
        for (auto& call : calls) {
            if (call->state() == vc::CallState::Connected) {
                call->send(util::ByteBuffer(64, 0x55));
            }
        }
    });
    chatter.start(sim::milliseconds(500));
    sim.run_until(sim::seconds(10));

    const std::size_t switch_state = net.switch_at(s).state_bytes();

    net.fail_switch(s);
    sim.run_until(sim::seconds(10) + sim::from_seconds(down_seconds));
    net.restore_switch(s);
    sim.run_until(sim.now() + sim::seconds(90));
    chatter.stop();

    int survived = 0;
    for (std::size_t i = 0; i < cleared.size(); ++i) {
        if (!cleared[i] && calls[i]->state() == vc::CallState::Connected) ++survived;
    }
    return FateResult{survived, connections, switch_state};
}

}  // namespace

int main() {
    banner("E8 — fate-sharing vs replicated in-network connection state",
           "stateless gateways mean a crash loses packets, never "
           "connections; switches that replicate connection state turn "
           "every crash into N dead conversations");

    std::printf("[intermediate node crashes for 5 s and restarts]\n");
    Table t({"architecture", "conns", "survived crash", "conn state in node (B)"});
    for (int n : {4, 16, 64}) {
        const auto dg = run_datagram(n, 5.0);
        t.row({"datagram gateway", std::to_string(n),
               std::to_string(dg.survived) + "/" + std::to_string(dg.total),
               fmt_u(dg.state_bytes)});
    }
    for (int n : {4, 16, 64}) {
        const auto vcr = run_vc(n, 5.0);
        t.row({"VC switch", std::to_string(n),
               std::to_string(vcr.survived) + "/" + std::to_string(vcr.total),
               fmt_u(vcr.state_bytes)});
    }
    t.print();

    verdict(
        "the gateway holds zero bytes of connection state, so every "
        "conversation rides out the crash on endpoint retransmission alone; "
        "the switch holds state proportional to the call count and every "
        "one of those calls dies with it. This asymmetry is fate-sharing — "
        "the paper's central mechanism for goal 1.");
    return 0;
}
