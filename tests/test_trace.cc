// Packet-trace tests: the flight recorder reports the right events in the
// right order with faithful header detail, and renders them as
// tcpdump-style lines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/internetwork.h"
#include "ip/protocols.h"
#include "link/presets.h"
#include "telemetry/flight_recorder.h"

namespace catenet::telemetry {
namespace {

TEST(ProtocolName, KnownAndUnknown) {
    EXPECT_EQ(protocol_name(ip::kProtoTcp), "TCP");
    EXPECT_EQ(protocol_name(ip::kProtoUdp), "UDP");
    EXPECT_EQ(protocol_name(ip::kProtoIcmp), "ICMP");
    EXPECT_EQ(protocol_name(ip::kProtoEgp), "EGP");
    EXPECT_EQ(protocol_name(200), "200");
}

struct TraceFixture : ::testing::Test {
    core::Internetwork net{191};
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& gw = net.add_gateway("gw");
    FlightRecorder* rec = nullptr;

    void wire() {
        net.connect(a, gw, link::presets::ethernet_hop());
        net.connect(gw, b, link::presets::ethernet_hop());
        net.use_static_routes();
        rec = &net.attach_flight_recorder();
        b.ip().register_protocol(200, [](auto&, auto, auto) {});
    }

    /// A node's lane: the recorder keeps one per node, in node order.
    std::size_t lane_of(const core::Node& n) const {
        for (std::size_t i = 0; i < rec->lane_count(); ++i) {
            if (rec->lane_name(i) == n.name()) return i;
        }
        ADD_FAILURE() << "no lane for " << n.name();
        return 0;
    }

    /// "event protocol bytes" for each of a node's records, oldest first.
    std::vector<std::string> events(const core::Node& n) const {
        const RecorderLane& lane = rec->lane(lane_of(n));
        std::vector<std::string> out;
        for (std::size_t i = 0; i < lane.held(); ++i) {
            const PacketRecord& r = lane.at(i);
            out.push_back(std::string(to_cstr(static_cast<PacketEvent>(r.event))) + " " +
                          protocol_name(r.protocol) + " " + std::to_string(r.wire_bytes));
        }
        return out;
    }
};

TEST_F(TraceFixture, GatewaySeesRxAndFwd) {
    wire();
    a.ip().send(200, b.address(), util::ByteBuffer(100, 1));
    net.run_for(sim::seconds(1));
    EXPECT_EQ(events(gw), (std::vector<std::string>{"rx 200 120", "fwd 200 120"}));
}

TEST_F(TraceFixture, EndpointsSeeTxAndDeliver) {
    wire();
    a.ip().send(200, b.address(), util::ByteBuffer(10, 1));
    net.run_for(sim::seconds(1));
    EXPECT_EQ(events(a), (std::vector<std::string>{"tx 200 30"}));
    EXPECT_EQ(events(b), (std::vector<std::string>{"rx 200 30", "deliver 200 30"}));
}

TEST_F(TraceFixture, TtlDropIsTraced) {
    wire();
    ip::SendOptions opts;
    opts.ttl = 1;
    a.ip().send(200, b.address(), util::ByteBuffer(10, 1), opts);
    net.run_for(sim::seconds(1));
    const RecorderLane& lane = rec->lane(lane_of(gw));
    std::vector<DropReason> drops;
    for (std::size_t i = 0; i < lane.held(); ++i) {
        if (lane.at(i).event == static_cast<std::uint8_t>(PacketEvent::Drop)) {
            drops.push_back(static_cast<DropReason>(lane.at(i).reason));
        }
    }
    EXPECT_EQ(drops, std::vector<DropReason>{DropReason::TtlExpired});
}

TEST_F(TraceFixture, TextTracerFormatsReadably) {
    wire();
    ip::SendOptions opts;
    opts.tos = 0x10;
    a.ip().send(200, b.address(), util::ByteBuffer(2000, 1), opts);  // fragments
    net.run_for(sim::seconds(1));
    ASSERT_EQ(rec->total_overwritten(), 0u);
    EXPECT_EQ(rec->decode_lane(lane_of(gw)),
              "[   0.001250] gw rx      10.0.1.1 > 10.0.2.2 200 1500B ttl=64 tos=0x10 frag=0+\n"
              "[   0.001250] gw fwd     10.0.1.1 > 10.0.2.2 200 1500B ttl=63 tos=0x10 frag=0+\n"
              "[   0.001682] gw rx      10.0.1.1 > 10.0.2.2 200 540B ttl=64 tos=0x10 frag=1480$\n"
              "[   0.001682] gw fwd     10.0.1.1 > 10.0.2.2 200 540B ttl=63 tos=0x10 frag=1480$\n");
}

}  // namespace
}  // namespace catenet::telemetry
