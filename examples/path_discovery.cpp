// Path discovery (traceroute) — the architecture debugging itself.
//
// Nothing in the datagram internet reports paths; but TTL expiry plus
// ICMP Time Exceeded lets a host map the gateways its packets traverse
// with zero network cooperation. We build a two-region internet (interior
// DV routing + EGP between regions), trace the path, break the path,
// let routing heal it, and trace again to watch the detour appear.
//
// Build & run:   ./build/examples/path_discovery
#include <cstdio>

#include "app/traceroute.h"
#include "core/internetwork.h"
#include "link/presets.h"

using namespace catenet;

namespace {

void print_hops(const std::vector<app::TracerouteHop>& hops) {
    for (const auto& hop : hops) {
        if (hop.responder) {
            std::printf("  %2d  %-12s  %.2f ms%s\n", hop.ttl,
                        hop.responder->to_string().c_str(), hop.rtt.millis(),
                        hop.reached_destination ? "  <- destination" : "");
        } else {
            std::printf("  %2d  *  (timeout)\n", hop.ttl);
        }
    }
}

}  // namespace

int main() {
    core::Internetwork net(77);
    core::Host& src = net.add_host("src");
    core::Host& dst = net.add_host("dst");
    core::Gateway& g1 = net.add_gateway("g1");
    core::Gateway& g2 = net.add_gateway("g2");   // primary middle hop
    core::Gateway& g3 = net.add_gateway("g3");   // detour middle hop
    core::Gateway& g4 = net.add_gateway("g4");

    net.connect(src, g1, link::presets::ethernet_hop());
    const auto primary = net.connect(g1, g2, link::presets::ethernet_hop());
    net.connect(g2, g4, link::presets::ethernet_hop());
    net.connect(g1, g3, link::presets::satellite());   // slow backup
    net.connect(g3, g4, link::presets::satellite());
    net.connect(g4, dst, link::presets::ethernet_hop());

    routing::DvConfig dv;
    dv.period = sim::seconds(2);
    dv.route_timeout = sim::seconds(7);
    net.enable_dynamic_routing(dv);
    net.run_for(sim::seconds(10));

    // Each Traceroute leaves its ICMP handlers registered on `src`, so
    // both live until the simulation is done with them.
    std::printf("traceroute to %s (before failure):\n", dst.address().to_string().c_str());
    app::Traceroute before(src, dst.address());
    before.start({});
    net.run_for(sim::seconds(30));
    print_hops(before.hops());

    std::printf("\n*** cutting the g1-g2 link; distance-vector routing heals "
                "the path ***\n\n");
    net.fail_link(primary);
    net.run_for(sim::seconds(15));

    std::printf("traceroute to %s (after reroute):\n", dst.address().to_string().c_str());
    app::Traceroute after(src, dst.address());
    after.start({});
    net.run_for(sim::seconds(60));
    print_hops(after.hops());

    std::printf("\nThe detour shows itself twice over: a different middle "
                "gateway, and\nsatellite-sized round-trip times. The network "
                "never announced the change;\nthe endpoints inferred "
                "everything from TTL and ICMP (goal-3 minimalism).\n");
    return 0;
}
