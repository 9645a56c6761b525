// Scenario-DSL tests: parsing, validation errors, and end-to-end runs
// driven entirely from text.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "app/scenario.h"

namespace catenet::app {
namespace {

TEST(Scenario, MinimalTwoHostTransfer) {
    const auto report = run_scenario(R"(
host a
host b
link a b ethernet
transfer a b 64K
run 30s
)");
    ASSERT_EQ(report.transfers.size(), 1u);
    EXPECT_TRUE(report.transfers[0].completed);
    EXPECT_EQ(report.transfers[0].bytes, 64u * 1024u);
    EXPECT_GT(report.transfers[0].goodput_bps, 0.0);
    EXPECT_GT(report.events, 0u);
}

TEST(Scenario, CommentsAndBlankLines) {
    EXPECT_NO_THROW(run_scenario(R"(
# a comment
host a   # trailing comment

host b
link a b ethernet
run 1s
)"));
}

TEST(Scenario, LinkOptionsApply) {
    const auto report = run_scenario(R"(
host a
host b
link a b ethernet loss=0.1 delay=20
transfer a b 256K
run 240s
)");
    ASSERT_EQ(report.transfers.size(), 1u);
    EXPECT_TRUE(report.transfers[0].completed);
    EXPECT_GT(report.transfers[0].retransmits, 0u) << "loss option must bite";
}

TEST(Scenario, GatewayLanAndDynamicRouting) {
    const auto report = run_scenario(R"(
host a
host b
gateway g
lan net1
attach a net1
attach g net1
link g b ethernet
routing dv
transfer a b 32K
run 60s
)");
    ASSERT_EQ(report.transfers.size(), 1u);
    EXPECT_TRUE(report.transfers[0].completed);
}

TEST(Scenario, FailureDirectiveSurvivable) {
    const auto report = run_scenario(R"(
host a
host b
gateway g1
gateway g2
gateway g3
link a g1 ethernet
link g1 g2 ethernet
link g1 g3 ethernet
link g2 b ethernet
link g3 b ethernet
routing dv
transfer a b 4M
fail g2 at 5s for 5s
run 240s
)");
    ASSERT_EQ(report.transfers.size(), 1u);
    EXPECT_TRUE(report.transfers[0].completed)
        << "the redundant path must carry the transfer through the crash";
}

TEST(Scenario, VoiceAndInteractiveReports) {
    const auto report = run_scenario(R"(
host a
host b
link a b ethernet
voice a b 10s
echo b
interactive a b 10s
run 20s
)");
    ASSERT_EQ(report.voices.size(), 1u);
    EXPECT_GT(report.voices[0].report.frames_received, 400u);
    ASSERT_EQ(report.interactives.size(), 1u);
    EXPECT_GT(report.interactives[0].echoes, 0u);
}

TEST(Scenario, QueueDirectiveProtectsVoice) {
    // The E10 story, driven from text: a greedy transfer vs a voice call
    // over a thin link, with and without a fair queue at the bottleneck.
    const char* base = R"(
host a
host b
gateway g1
gateway g2
link a g1 ethernet
link g1 g2 leased56k rate=512000
link g2 b ethernet
{QUEUE}
transfer a b 16M
voice a b 30s
run 45s
)";
    auto run_variant = [&](const std::string& queue_line) {
        std::string text = base;
        text.replace(text.find("{QUEUE}"), 7, queue_line);
        return run_scenario(text);
    };
    const auto fifo = run_variant("# fifo default");
    const auto fair = run_variant("queue g1 g2 fair");
    ASSERT_EQ(fifo.voices.size(), 1u);
    ASSERT_EQ(fair.voices.size(), 1u);
    EXPECT_GT(fair.voices[0].report.usable_fraction,
              fifo.voices[0].report.usable_fraction + 0.1)
        << "the fair queue must rescue the voice flow from the bulk transfer";
}

TEST(Scenario, QueueOnUnknownLinkRejected) {
    EXPECT_THROW(run_scenario(R"(
host a
host b
link a b ethernet
queue b a fair
run 1s
)"),
                 ScenarioError);
}

TEST(Scenario, GeneratedTwoTierRunsWorkloads) {
    const auto report = run_scenario(R"(
generate two_tier 4 4 3 full seed=5
transfer h0_0 h2_1 64K
run 30s
)");
    ASSERT_EQ(report.transfers.size(), 1u);
    EXPECT_TRUE(report.transfers[0].completed);
    EXPECT_GT(report.total_link_bytes, 64u * 1024u);
}

TEST(Scenario, GeneratedTwoTierIsDeterministic) {
    const std::string text = R"(
generate two_tier 4 4 3 full seed=5
transfer h0_0 h2_1 64K
run 30s
)";
    const auto a = run_scenario(text, 9);
    const auto b = run_scenario(text, 9);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.total_link_bytes, b.total_link_bytes);
}

TEST(Scenario, GeneratedCompactHostsAreNotAddressable) {
    // Compact leaves exist only in the arrays — referencing one by name is
    // an error, not a silent miss.
    EXPECT_THROW(run_scenario(R"(
generate two_tier 4 4 3 compact
transfer h0_0 h2_1 64K
run 5s
)"),
                 ScenarioError);
}

TEST(Scenario, GenerateRejectsBadArguments) {
    EXPECT_THROW(run_scenario("generate two_tier x y z\nrun 1s\n"), ScenarioError);
    EXPECT_THROW(run_scenario("generate two_tier 4 4 3 turbo\nrun 1s\n"),
                 ScenarioError);
}

TEST(Scenario, ErrorsCarryLineNumbers) {
    try {
        run_scenario("host a\nbogus directive\n");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(Scenario, UnknownNodeRejected) {
    EXPECT_THROW(run_scenario("host a\nlink a ghost ethernet\nrun 1s\n"), ScenarioError);
}

TEST(Scenario, UnknownTechnologyRejected) {
    EXPECT_THROW(run_scenario("host a\nhost b\nlink a b warp\nrun 1s\n"), ScenarioError);
}

TEST(Scenario, MissingRunRejected) {
    EXPECT_THROW(run_scenario("host a\n"), ScenarioError);
}

TEST(Scenario, BadDurationRejected) {
    EXPECT_THROW(run_scenario("host a\nhost b\nlink a b ethernet\nrun banana\n"),
                 ScenarioError);
}

TEST(Scenario, TransferBetweenGatewaysRejected) {
    EXPECT_THROW(run_scenario(R"(
host a
gateway g
link a g ethernet
transfer a g 1K
run 1s
)"),
                 ScenarioError);
}

// Malformed-input corpus: every case must surface as a ScenarioError that
// names the offending line and what was wrong with it — never a crash, an
// uncaught foreign exception, or a run that silently goes nowhere.
struct MalformedCase {
    const char* id;
    const char* text;
    int line;
    const char* complaint;  ///< substring the message must contain

    // Names the case in test listings (the default would dump pointers).
    friend void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.id; }
};

class ScenarioMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(ScenarioMalformed, TypedErrorOnItsLine) {
    const MalformedCase& c = GetParam();
    try {
        run_scenario(c.text);
        FAIL() << "accepted: " << c.text;
    } catch (const ScenarioError& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("line " + std::to_string(c.line) + ":", 0), 0u) << what;
        EXPECT_NE(what.find(c.complaint), std::string::npos) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ScenarioMalformed,
    ::testing::Values(
        MalformedCase{"ZeroRate", "host a\nhost b\nlink a b ethernet rate=0\nrun 1s\n", 3,
                      "bits_per_second"},
        MalformedCase{"NegativeDelay", "host a\nhost b\nlink a b ethernet delay=-5\nrun 1s\n",
                      3, "propagation_delay"},
        MalformedCase{"MtuBelowIpv4Minimum",
                      "host a\nhost b\nlink a b ethernet mtu=20\nrun 1s\n", 3, "mtu"},
        MalformedCase{"MtuAboveIpv4Maximum",
                      "host a\nhost b\nlink a b ethernet mtu=70000\nrun 1s\n", 3, "mtu"},
        MalformedCase{"LossAboveOne", "host a\nhost b\nlink a b ethernet loss=1.5\nrun 1s\n",
                      3, "drop_probability"},
        MalformedCase{"NegativeLoss", "host a\nhost b\nlink a b ethernet loss=-1\nrun 1s\n",
                      3, "drop_probability"},
        MalformedCase{"NanLoss", "host a\nhost b\nlink a b ethernet loss=nan\nrun 1s\n", 3,
                      "drop_probability"},
        MalformedCase{"NonNumericRate",
                      "host a\nhost b\nlink a b ethernet rate=fast\nrun 1s\n", 3,
                      "bad value"},
        MalformedCase{"DuplicateHost", "host a\nhost b\nhost a\nrun 1s\n", 3,
                      "already taken"},
        MalformedCase{"GatewayReusesHostName", "host a\ngateway a\nrun 1s\n", 2,
                      "already taken"},
        MalformedCase{"LanReusesGatewayName", "gateway g\nlan g\nrun 1s\n", 2,
                      "already taken"},
        MalformedCase{"HostReusesGeneratedName",
                      "generate two_tier 2 2 1 compact\nhost gw0\nrun 1s\n", 2,
                      "already taken"},
        MalformedCase{"FailureInThePast", "gateway g\nfail g at -5s for 1s\nrun 1s\n", 2,
                      "bad duration"},
        MalformedCase{"NegativeLanCount", "generate two_tier 4 -1 3\nrun 1s\n", 1, "lans"},
        MalformedCase{"LanCountBeyondSubnetPlan", "generate two_tier 4 70000 1\nrun 1s\n",
                      1, "lans"},
        MalformedCase{"NegativeRate", "host a\nhost b\nlink a b ethernet rate=-1\nrun 1s\n",
                      3, "bad value"},
        MalformedCase{"MtuWithTrailingJunk",
                      "host a\nhost b\nlink a b ethernet mtu=1500x\nrun 1s\n", 3,
                      "bad value"},
        MalformedCase{"NegativeTransferSize",
                      "host a\nhost b\nlink a b ethernet\ntransfer a b -1K\nrun 1s\n", 4,
                      "bad size"},
        MalformedCase{"NegativeVoiceDuration",
                      "host a\nhost b\nlink a b ethernet\nvoice a b -5s\nrun 1s\n", 4,
                      "bad duration"}));

}  // namespace
}  // namespace catenet::app
