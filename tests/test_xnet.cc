// XNET debugger tests: the paper's flagship "datagrams, not streams"
// application must function over clean paths, over badly lossy paths
// (where TCP could not even hold a connection open cheaply), and across a
// crash of the target's own network path — the exact scenario a debugger
// exists for.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "app/xnet.h"
#include "core/internetwork.h"
#include "link/presets.h"

namespace catenet::app {
namespace {

struct XnetFixture : ::testing::Test {
    core::Internetwork net{141};
    core::Host& dbg_host = net.add_host("dbg");
    core::Host& target_host = net.add_host("target");
    core::Gateway& g = net.add_gateway("g");

    void wire(const link::LinkParams& far_side = link::presets::ethernet_hop()) {
        net.connect(dbg_host, g, link::presets::ethernet_hop());
        net.connect(g, target_host, far_side);
        net.use_static_routes();
    }
};

TEST_F(XnetFixture, PeekPokeHaltResume) {
    wire();
    XnetTarget target(target_host, 69, 4096);
    target.poke_direct(100, 0xde);
    target.poke_direct(101, 0xad);

    XnetDebugger debugger(dbg_host, target_host.address(), 69);
    std::vector<std::uint8_t> peeked;
    bool poked = false, halted = false, resumed = false;

    debugger.peek(100, 2, [&](const XnetResult& r) {
        ASSERT_TRUE(r.ok);
        peeked = r.data;
        const std::uint8_t patch[] = {0xbe, 0xef};
        debugger.poke(200, patch, [&](const XnetResult& r2) {
            ASSERT_TRUE(r2.ok);
            poked = true;
            debugger.halt([&](const XnetResult& r3) {
                ASSERT_TRUE(r3.ok);
                halted = target.halted();
                debugger.resume([&](const XnetResult& r4) {
                    ASSERT_TRUE(r4.ok);
                    resumed = !target.halted();
                });
            });
        });
    });
    net.run_for(sim::seconds(5));
    EXPECT_EQ(peeked, (std::vector<std::uint8_t>{0xde, 0xad}));
    EXPECT_TRUE(poked);
    EXPECT_EQ(target.peek_direct(200), 0xbe);
    EXPECT_EQ(target.peek_direct(201), 0xef);
    EXPECT_TRUE(halted);
    EXPECT_TRUE(resumed);
}

TEST_F(XnetFixture, OperatesOverBrutallyLossyPath) {
    // 40% loss each way: TCP would spend its life in retransmission
    // backoff; the debugger's own retry loop just grinds through. A
    // request and its reply both cross 36% of the time, so one peek may
    // never retry; eight in a row exercise the retry loop whatever the
    // channel draws.
    link::LinkParams brutal = link::presets::ethernet_hop();
    brutal.drop_probability = 0.4;
    wire(brutal);
    XnetTarget target(target_host, 69, 4096);
    constexpr std::uint32_t kPeeks = 8;
    for (std::uint32_t i = 0; i < kPeeks; ++i) {
        target.poke_direct(i, static_cast<std::uint8_t>(42 + i));
    }

    XnetDebugger debugger(dbg_host, target_host.address(), 69,
                          sim::milliseconds(200), /*max_retries=*/200);
    std::vector<std::uint8_t> values;
    std::function<void()> peek_next = [&] {
        debugger.peek(static_cast<std::uint32_t>(values.size()), 1, [&](const XnetResult& r) {
            if (!r.ok) return;
            values.push_back(r.data.at(0));
            if (values.size() < kPeeks) peek_next();
        });
    };
    peek_next();
    net.run_for(sim::seconds(60));
    ASSERT_EQ(values.size(), kPeeks);
    for (std::uint32_t i = 0; i < kPeeks; ++i) EXPECT_EQ(values[i], 42 + i);
    EXPECT_GT(debugger.retries(), 0u);
}

TEST_F(XnetFixture, DuplicatedPokesAreIdempotent) {
    // Force duplicates: a slow path whose replies often die, so the
    // client retransmits requests the target already served.
    link::LinkParams lossy = link::presets::ethernet_hop();
    lossy.drop_probability = 0.3;
    wire(lossy);
    XnetTarget target(target_host, 69, 4096);
    XnetDebugger debugger(dbg_host, target_host.address(), 69,
                          sim::milliseconds(150), 300);
    bool done = false;
    const std::uint8_t patch[] = {7, 7, 7};
    debugger.poke(10, patch, [&](const XnetResult& r) { done = r.ok; });
    net.run_for(sim::seconds(60));
    ASSERT_TRUE(done);
    EXPECT_EQ(target.peek_direct(10), 7);
    EXPECT_EQ(target.peek_direct(12), 7);
    // The target may well have served the same poke several times; memory
    // is still exactly right — idempotence is the reliability strategy.
    EXPECT_GE(target.requests_served(), 1u);
}

TEST_F(XnetFixture, SurvivesGatewayCrashMidSession) {
    wire();
    XnetTarget target(target_host, 69, 4096);
    XnetDebugger debugger(dbg_host, target_host.address(), 69,
                          sim::milliseconds(300), 100);
    target.poke_direct(5, 0x55);

    std::optional<std::uint8_t> value;
    g.set_down(true);  // the path is dead before we even start
    debugger.peek(5, 1, [&](const XnetResult& r) {
        if (r.ok) value = r.data.at(0);
    });
    net.run_for(sim::seconds(5));
    EXPECT_FALSE(value.has_value());
    g.set_down(false);  // path heals; the standing retry gets through
    net.run_for(sim::seconds(10));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, 0x55);
}

TEST_F(XnetFixture, OneOutstandingOperationAtATime) {
    wire();
    XnetTarget target(target_host, 69, 64);
    XnetDebugger debugger(dbg_host, target_host.address(), 69);
    EXPECT_TRUE(debugger.peek(0, 1, [](const XnetResult&) {}));
    EXPECT_FALSE(debugger.peek(0, 1, [](const XnetResult&) {}))
        << "serial tool: second op refused while one is pending";
}

TEST_F(XnetFixture, OutOfRangeAddressFails) {
    wire();
    XnetTarget target(target_host, 69, 64);
    XnetDebugger debugger(dbg_host, target_host.address(), 69);
    bool failed = false;
    debugger.peek(1000, 4, [&](const XnetResult& r) { failed = !r.ok; });
    net.run_for(sim::seconds(5));
    EXPECT_TRUE(failed);
}

}  // namespace
}  // namespace catenet::app
