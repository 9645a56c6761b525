// Application-library tests: bulk transfer, interactive echo, voice over
// both transports, request/response — the workloads behind the goal-2
// experiments, validated here in isolation.
#include <gtest/gtest.h>

#include "app/bulk.h"
#include "app/interactive.h"
#include "app/request_response.h"
#include "app/voice.h"
#include "core/internetwork.h"
#include "link/presets.h"

namespace catenet::app {
namespace {

struct AppFixture : ::testing::Test {
    core::Internetwork net{81};
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");

    void wire(const link::LinkParams& params = link::presets::ethernet_hop()) {
        net.connect(a, b, params);
        net.use_static_routes();
    }
};

TEST_F(AppFixture, BulkTransferCompletesAndValidates) {
    wire();
    BulkServer server(b, 21);
    BulkSender sender(a, b.address(), 21, 300 * 1024);
    bool completion_fired = false;
    sender.on_complete = [&] { completion_fired = true; };
    sender.start();
    net.run_for(sim::seconds(30));
    EXPECT_TRUE(sender.finished());
    EXPECT_TRUE(completion_fired);
    EXPECT_EQ(server.total_bytes_received(), 300u * 1024u);
    EXPECT_EQ(server.pattern_errors(), 0u);
    EXPECT_GT(sender.throughput_bps(), 0.0);
}

TEST_F(AppFixture, BulkThroughputTracksLinkRate) {
    wire(link::presets::leased_line());  // 56 kbit/s
    BulkServer server(b, 21);
    BulkSender sender(a, b.address(), 21, 56 * 1024);
    sender.start();
    net.run_for(sim::seconds(60));
    ASSERT_TRUE(sender.finished());
    // Achievable goodput is below line rate (headers, acks) but within 2x.
    EXPECT_LT(sender.throughput_bps(), 56000.0);
    EXPECT_GT(sender.throughput_bps(), 25000.0);
}

TEST_F(AppFixture, ConcurrentBulkSendersShareServer) {
    wire();
    BulkServer server(b, 21);
    BulkSender s1(a, b.address(), 21, 50 * 1024);
    BulkSender s2(a, b.address(), 21, 50 * 1024);
    s1.start();
    s2.start();
    net.run_for(sim::seconds(30));
    EXPECT_TRUE(s1.finished());
    EXPECT_TRUE(s2.finished());
    EXPECT_EQ(server.total_bytes_received(), 100u * 1024u);
    EXPECT_EQ(server.connections_completed(), 2u);
}

TEST_F(AppFixture, InteractiveEchoMeasuresRtt) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(25);  // 50 ms RTT floor
    wire(params);
    EchoServer server(b, 23);
    InteractiveConfig config;
    config.mean_interkey = sim::milliseconds(100);
    config.tcp.nagle = false;
    InteractiveClient client(a, b.address(), 23, config);
    client.start();
    net.run_for(sim::seconds(30));
    client.stop();
    EXPECT_GT(client.keystrokes_sent(), 100u);
    EXPECT_GT(client.echoes_received(), client.keystrokes_sent() * 9 / 10);
    EXPECT_GE(client.echo_rtts_ms().median(), 50.0);
    EXPECT_LT(client.echo_rtts_ms().median(), 120.0);
}

TEST_F(AppFixture, VoiceOverUdpQuietPath) {
    wire();
    VoiceOverUdp call(a, b, 5004);
    call.start(sim::seconds(20));
    net.run_for(sim::seconds(25));
    const auto r = call.report();
    EXPECT_EQ(r.frames_sent, 1000u);
    EXPECT_GT(r.usable_fraction, 0.99);
    EXPECT_LT(r.jitter_ms, 1.0);
}

TEST_F(AppFixture, VoiceOverUdpLossyPathDegradesGracefully) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.05;
    wire(params);
    VoiceOverUdp call(a, b, 5004);
    call.start(sim::seconds(20));
    net.run_for(sim::seconds(25));
    const auto r = call.report();
    EXPECT_NEAR(r.loss_fraction, 0.05, 0.03) << "UDP loses frames, nothing else";
    EXPECT_LT(r.p95_latency_ms, 50.0) << "survivors arrive on time";
}

TEST_F(AppFixture, VoiceOverTcpLossyPathStalls) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.05;
    wire(params);
    VoiceOverTcp call(a, b, 5005);
    call.start(sim::seconds(20));
    net.run_for(sim::seconds(30));
    const auto r = call.report();
    // Everything arrives (reliable), but retransmission stalls make many
    // frames useless for real-time playout.
    EXPECT_LT(r.loss_fraction, 0.05);
    EXPECT_GT(r.frames_late, 0u);
    EXPECT_GT(r.p99_latency_ms, 100.0)
        << "head-of-line blocking must show up in the tail";
}

TEST_F(AppFixture, RpcPersistentConnection) {
    wire();
    RpcServer server(b, 111);
    RpcClientConfig config;
    config.mean_interarrival = sim::milliseconds(50);
    config.response_bytes = 256;
    RpcClient client(a, b.address(), 111, config);
    client.start();
    net.run_for(sim::seconds(20));
    client.stop();
    EXPECT_GT(client.requests_sent(), 200u);
    EXPECT_EQ(client.responses_received(), client.requests_sent());
    EXPECT_GT(server.requests_served(), 200u);
    EXPECT_LT(client.latencies_ms().median(), 10.0);
}

TEST_F(AppFixture, RpcConnectionPerRequestPaysHandshake) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(20);  // 40ms RTT
    wire(params);
    RpcServer server(b, 111);

    RpcClientConfig persistent;
    persistent.mean_interarrival = sim::milliseconds(200);
    RpcClient warm(a, b.address(), 111, persistent);
    warm.start();
    net.run_for(sim::seconds(30));
    warm.stop();

    RpcClientConfig per_request = persistent;
    per_request.connection_per_request = true;
    RpcClient cold(a, b.address(), 111, per_request);
    cold.start();
    net.run_for(sim::seconds(30));
    cold.stop();

    ASSERT_GT(warm.responses_received(), 50u);
    ASSERT_GT(cold.responses_received(), 50u);
    EXPECT_GT(cold.latencies_ms().median(), warm.latencies_ms().median() + 30.0)
        << "per-request connections must pay roughly one extra RTT";
}

TEST_F(AppFixture, RpcConnectionPerRequestReassemblesEachResponseApart) {
    // Multi-segment responses on transient connections that overlap in
    // time (a 40 ms RTT against 5 ms mean arrivals): segments of different
    // responses interleave at the client, so each connection must
    // reassemble its own response.
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(20);
    wire(params);
    RpcServer server(b, 111);
    RpcClientConfig config;
    config.response_bytes = 4000;  // several MSS-sized segments
    config.mean_interarrival = sim::milliseconds(5);
    config.connection_per_request = true;
    RpcClient client(a, b.address(), 111, config);
    client.start();
    net.run_for(sim::seconds(5));
    client.stop();
    net.run_for(sim::seconds(30));  // drain every open transaction

    ASSERT_GT(client.requests_sent(), 500u);
    EXPECT_EQ(server.requests_served(), client.requests_sent());
    EXPECT_EQ(client.responses_received(), client.requests_sent());
}

}  // namespace
}  // namespace catenet::app
