// Quickstart: the smallest complete catenet program.
//
// Builds a two-host internet joined by one gateway, opens a TCP
// connection through it, exchanges a greeting, and prints what happened.
//
//   host "alice" --- gateway "relay" --- host "bob"
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "core/internetwork.h"
#include "link/presets.h"

using namespace catenet;

int main() {
    // Every scenario starts with an Internetwork: it owns the simulator,
    // the seeded RNG, the nodes, and the wires between them.
    core::Internetwork net(/*seed=*/42);

    core::Host& alice = net.add_host("alice");
    core::Host& bob = net.add_host("bob");
    core::Gateway& relay = net.add_gateway("relay");

    // Two Ethernet-class point-to-point links. Addresses and subnets are
    // allocated automatically (10.0.x.0/24 per link).
    net.connect(alice, relay, link::presets::ethernet_hop());
    net.connect(relay, bob, link::presets::ethernet_hop());

    // Oracle shortest-path routes (the operator's static config).
    net.use_static_routes();

    // Bob listens. The accept callback hands over a connected socket,
    // which the stack keeps alive while the connection lasts. Its
    // callbacks capture it raw: the socket owns them, so a shared_ptr
    // capture would be a cycle that never frees.
    bob.tcp().listen(7777, [&](std::shared_ptr<tcp::TcpSocket> peer) {
        peer->on_data = [raw = peer.get()](std::span<const std::uint8_t> data) {
            std::printf("[bob]   got: \"%s\"\n",
                        util::string_from_buffer(data).c_str());
            const auto reply = util::buffer_from_string("hi alice, datagrams work");
            raw->send(reply);
            raw->push();
        };
        peer->on_remote_close = [raw = peer.get()] { raw->close(); };
    });

    // Alice connects and speaks.
    auto socket = alice.tcp().connect(bob.address(), 7777);
    socket->on_connected = [&] {
        std::printf("[alice] connected to %s\n", bob.address().to_string().c_str());
        socket->send(util::buffer_from_string("hello bob"));
        socket->push();
    };
    socket->on_data = [&](std::span<const std::uint8_t> data) {
        std::printf("[alice] got: \"%s\"\n", util::string_from_buffer(data).c_str());
        socket->close();
    };

    // Run the world for one simulated second.
    net.run_for(sim::seconds(1));

    std::printf("\n--- post-mortem ---\n");
    std::printf("simulated time:      %s\n", net.sim().now().to_string().c_str());
    std::printf("events processed:    %llu\n",
                static_cast<unsigned long long>(net.sim().events_processed()));
    std::printf("gateway forwarded:   %llu datagrams\n",
                static_cast<unsigned long long>(relay.ip().stats().forwarded));
    std::printf("alice TCP segments:  %llu sent, srtt %.2f ms\n",
                static_cast<unsigned long long>(socket->stats().segments_sent),
                socket->stats().srtt_ms);
    return 0;
}
