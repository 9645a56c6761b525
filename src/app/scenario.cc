#include "app/scenario.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/flow.h"
#include "core/topology_gen.h"
#include "link/presets.h"
#include "link/queue.h"

namespace catenet::app {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
    std::istringstream is(line);
    std::vector<std::string> tokens;
    std::string token;
    while (is >> token) {
        if (token[0] == '#') break;  // comment to end of line
        tokens.push_back(token);
    }
    return tokens;
}

// The one parser behind every numeric scenario argument. The whole token
// must be the number (no trailing junk), an unsigned value takes no sign,
// and a value outside T's range is an error rather than a wrap:
// std::from_chars enforces all three. Throws ScenarioError(line, bad).
template <class T>
T parse_number(std::string_view token, int line, const std::string& bad) {
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end) throw ScenarioError(line, bad);
    return value;
}

// "1M" / "64K" / "1024" -> bytes.
std::uint64_t parse_size(const std::string& s, int line) {
    const std::string bad = "bad size '" + s + "'";
    std::uint64_t multiplier = 1;
    std::string_view digits = s;
    switch (s.empty() ? '\0' : s.back()) {
        case 'K': multiplier = 1024; digits.remove_suffix(1); break;
        case 'M': multiplier = 1024 * 1024; digits.remove_suffix(1); break;
        case 'G': multiplier = 1024ull * 1024 * 1024; digits.remove_suffix(1); break;
        default: break;
    }
    const auto n = parse_number<std::uint64_t>(digits, line, bad);
    if (n > std::numeric_limits<std::uint64_t>::max() / multiplier) {
        throw ScenarioError(line, bad);
    }
    return n * multiplier;
}

// "30s" / "2.5s" / "500ms" -> Time. A billion seconds (~32 years) is far
// past any scenario, and small enough that a start plus an offset plus a
// length still fits sim::Time's 64-bit nanoseconds.
sim::Time parse_duration(const std::string& s, int line) {
    constexpr std::int64_t kMaxSeconds = 1'000'000'000;
    const std::string bad =
        "bad duration '" + s + "' (use a length >= 0 such as 30s or 500ms)";
    const std::string_view v = s;
    if (v.ends_with("ms")) {
        const auto ms = parse_number<std::int64_t>(v.substr(0, v.size() - 2), line, bad);
        if (ms < 0 || ms > kMaxSeconds * 1000) throw ScenarioError(line, bad);
        return sim::milliseconds(ms);
    }
    if (v.ends_with('s')) {
        const auto seconds = parse_number<double>(v.substr(0, v.size() - 1), line, bad);
        if (!(seconds >= 0.0 && seconds <= static_cast<double>(kMaxSeconds))) {
            throw ScenarioError(line, bad);  // also NaN
        }
        return sim::from_seconds(seconds);
    }
    throw ScenarioError(line, bad);
}

link::LinkParams technology(const std::string& name, int line) {
    if (name == "ethernet") return link::presets::ethernet_hop();
    if (name == "leased56k") return link::presets::leased_line();
    if (name == "satellite") return link::presets::satellite();
    if (name == "radio") return link::presets::packet_radio();
    if (name == "serial1200") return link::presets::slow_serial();
    if (name == "x25") return link::presets::x25_hop();
    throw ScenarioError(line, "unknown link technology '" + name + "'");
}

void apply_link_option(link::LinkParams& params, const std::string& option, int line) {
    const auto eq = option.find('=');
    if (eq == std::string::npos) {
        throw ScenarioError(line, "bad link option '" + option + "'");
    }
    const std::string key = option.substr(0, eq);
    const std::string_view value = std::string_view(option).substr(eq + 1);
    const std::string bad = "bad value in '" + option + "'";
    // Range is LinkParams::validate's to judge (it names the field); the
    // parse only has to produce the value that was written.
    if (key == "loss") {
        params.drop_probability = parse_number<double>(value, line, bad);
    } else if (key == "rate") {
        params.bits_per_second = parse_number<std::uint64_t>(value, line, bad);
    } else if (key == "delay") {
        // Signed, so a negative delay reaches validate; bounded so the
        // milliseconds-to-nanoseconds scaling cannot overflow.
        constexpr std::int64_t kMaxMs = std::numeric_limits<std::int64_t>::max() / 1'000'000;
        const auto ms = parse_number<std::int64_t>(value, line, bad);
        if (ms < -kMaxMs || ms > kMaxMs) throw ScenarioError(line, bad);
        params.propagation_delay = sim::milliseconds(ms);
    } else if (key == "mtu") {
        params.mtu = parse_number<std::size_t>(value, line, bad);
    } else {
        throw ScenarioError(line, "unknown link option '" + key + "'");
    }
}

struct PendingFailure {
    std::string node;
    sim::Time at;
    sim::Time duration;
};

}  // namespace

void ScenarioReport::print(std::ostream& os) const {
    os << "simulated " << simulated_seconds << " s, " << events << " events, "
       << total_link_bytes << " bytes on the wire\n";
    for (const auto& transfer : transfers) {
        os << "transfer " << transfer.src << " -> " << transfer.dst << ": "
           << (transfer.completed ? "completed" : "INCOMPLETE") << " " << transfer.bytes
           << " B in " << transfer.seconds << " s (" << transfer.goodput_bps / 1000.0
           << " kb/s, " << transfer.retransmits << " rexmits)\n";
    }
    for (const auto& voice : voices) {
        os << "voice " << voice.src << " -> " << voice.dst << ": "
           << voice.report.frames_received << "/" << voice.report.frames_sent
           << " frames, " << voice.report.usable_fraction * 100 << "% usable, p99 "
           << voice.report.p99_latency_ms << " ms\n";
    }
    for (const auto& session : interactives) {
        os << "interactive " << session.src << " -> " << session.dst << ": "
           << session.echoes << "/" << session.keystrokes << " echoes, rtt p50 "
           << session.rtt_p50_ms << " ms p99 " << session.rtt_p99_ms << " ms\n";
    }
}

ScenarioReport run_scenario(const std::string& text, std::uint64_t seed) {
    auto net = std::make_unique<core::Internetwork>(seed);
    std::map<std::string, core::Host*> hosts;
    std::map<std::string, core::Gateway*> gateways;
    std::map<std::string, std::size_t> lans;
    auto find_node = [&](const std::string& name, int line) -> core::Node& {
        if (auto it = hosts.find(name); it != hosts.end()) return *it->second;
        if (auto it = gateways.find(name); it != gateways.end()) return *it->second;
        throw ScenarioError(line, "unknown node '" + name + "'");
    };
    auto find_host = [&](const std::string& name, int line) -> core::Host& {
        if (auto it = hosts.find(name); it != hosts.end()) return *it->second;
        throw ScenarioError(line, "'" + name + "' is not a host");
    };
    // Hosts, gateways and LANs share one namespace: a second declaration
    // would silently shadow the first in the lookup tables.
    auto claim_name = [&](const std::string& name, int line) -> const std::string& {
        if (hosts.contains(name) || gateways.contains(name) || lans.contains(name)) {
            throw ScenarioError(line, "name '" + name + "' is already taken");
        }
        return name;
    };

    bool routing_configured = false;
    std::vector<PendingFailure> failures;
    std::map<std::pair<std::string, std::string>, std::size_t> link_index;

    // Deferred workloads (started just before `run`).
    struct TransferSpec {
        std::string src, dst;
        std::uint64_t bytes;
        std::unique_ptr<app::BulkServer> server;
        std::unique_ptr<app::BulkSender> sender;
    };
    struct VoiceSpec {
        std::string src, dst;
        sim::Time duration;
        std::unique_ptr<app::VoiceOverUdp> call;
    };
    struct InteractiveSpec {
        std::string src, dst;
        sim::Time duration;
        std::unique_ptr<app::InteractiveClient> client;
    };
    std::vector<TransferSpec> transfers;
    std::vector<VoiceSpec> voices;
    std::vector<InteractiveSpec> interactives;
    std::vector<std::unique_ptr<app::EchoServer>> echo_servers;
    std::uint16_t next_port = 2000;

    ScenarioReport report;
    std::istringstream stream(text);
    std::string raw_line;
    int line = 0;
    bool ran = false;

    while (std::getline(stream, raw_line)) {
        ++line;
        const auto tokens = tokenize(raw_line);
        if (tokens.empty()) continue;
        const std::string& cmd = tokens[0];

        if (cmd == "generate" && tokens.size() >= 5 && tokens[1] == "two_tier") {
            core::TwoTierParams params;
            params.seed = seed;
            auto count = [&](const std::string& token, const char* field) {
                return parse_number<std::uint32_t>(
                    token, line,
                    std::string("generate two_tier: bad <") + field + "> '" + token + "'");
            };
            params.gateways = count(tokens[2], "gateways");
            params.lans = count(tokens[3], "lans");
            params.hosts_per_lan = count(tokens[4], "hosts_per_lan");
            for (std::size_t i = 5; i < tokens.size(); ++i) {
                if (tokens[i] == "compact") {
                    params.compact_hosts = true;
                } else if (tokens[i] == "full") {
                    params.compact_hosts = false;
                } else if (tokens[i].starts_with("seed=")) {
                    params.seed = parse_number<std::uint64_t>(
                        std::string_view(tokens[i]).substr(5), line,
                        "bad value in '" + tokens[i] + "'");
                } else {
                    throw ScenarioError(line, "unknown generate option '" + tokens[i] +
                                                  "' (compact, full, seed=N)");
                }
            }
            core::TwoTierTopology topo;
            try {
                topo = core::generate_two_tier(*net, params);
            } catch (const std::exception& e) {
                throw ScenarioError(line, e.what());
            }
            // The generated population joins the name tables: gateways as
            // gw<i>, materialized hosts as h<lan>_<host> — later transfer /
            // voice / fail directives address them like hand-declared nodes.
            for (std::size_t i = 0; i < topo.gateways.size(); ++i) {
                gateways["gw" + std::to_string(i)] = topo.gateways[i];
            }
            for (std::size_t l = 0, h = 0; l < params.lans && !params.compact_hosts;
                 ++l) {
                for (std::uint32_t k = 0; k < params.hosts_per_lan; ++k, ++h) {
                    hosts["h" + std::to_string(l) + "_" + std::to_string(k)] =
                        topo.hosts[h];
                }
            }
            routing_configured = params.install_routes;
        } else if (cmd == "host" && tokens.size() == 2) {
            hosts[claim_name(tokens[1], line)] = &net->add_host(tokens[1]);
        } else if (cmd == "gateway" && tokens.size() == 2) {
            gateways[claim_name(tokens[1], line)] = &net->add_gateway(tokens[1]);
        } else if (cmd == "lan" && tokens.size() == 2) {
            lans[claim_name(tokens[1], line)] =
                net->add_lan(link::presets::ethernet_lan(), tokens[1]);
        } else if (cmd == "attach" && tokens.size() == 3) {
            auto lan_it = lans.find(tokens[2]);
            if (lan_it == lans.end()) throw ScenarioError(line, "unknown lan");
            net->attach_to_lan(find_node(tokens[1], line), lan_it->second);
        } else if (cmd == "link" && tokens.size() >= 4) {
            auto params = technology(tokens[3], line);
            for (std::size_t i = 4; i < tokens.size(); ++i) {
                apply_link_option(params, tokens[i], line);
            }
            core::Node& a = find_node(tokens[1], line);
            core::Node& b = find_node(tokens[2], line);
            try {
                link_index[{tokens[1], tokens[2]}] = net->connect(a, b, params);
            } catch (const std::invalid_argument& e) {
                throw ScenarioError(line, e.what());  // LinkParams::validate
            }
        } else if (cmd == "routing" && tokens.size() == 2) {
            routing_configured = true;
            if (tokens[1] == "static") {
                net->use_static_routes();
            } else if (tokens[1] == "dv") {
                routing::DvConfig dv;
                dv.period = sim::seconds(2);
                dv.route_timeout = sim::seconds(7);
                net->enable_dynamic_routing(dv);
                net->run_for(sim::seconds(15));  // convergence warm-up
            } else {
                throw ScenarioError(line, "routing must be 'static' or 'dv'");
            }
        } else if (cmd == "transfer" && tokens.size() == 4) {
            TransferSpec spec;
            spec.src = tokens[1];
            spec.dst = tokens[2];
            spec.bytes = parse_size(tokens[3], line);
            find_host(spec.src, line);
            find_host(spec.dst, line);
            transfers.push_back(std::move(spec));
        } else if (cmd == "voice" && tokens.size() == 4) {
            VoiceSpec spec;
            spec.src = tokens[1];
            spec.dst = tokens[2];
            spec.duration = parse_duration(tokens[3], line);
            find_host(spec.src, line);
            find_host(spec.dst, line);
            voices.push_back(std::move(spec));
        } else if (cmd == "echo" && tokens.size() == 2) {
            echo_servers.push_back(
                std::make_unique<app::EchoServer>(find_host(tokens[1], line), 23));
        } else if (cmd == "interactive" && tokens.size() == 4) {
            InteractiveSpec spec;
            spec.src = tokens[1];
            spec.dst = tokens[2];
            spec.duration = parse_duration(tokens[3], line);
            find_host(spec.src, line);
            find_host(spec.dst, line);
            interactives.push_back(std::move(spec));
        } else if (cmd == "queue" && tokens.size() == 4) {
            auto it = link_index.find({tokens[1], tokens[2]});
            if (it == link_index.end()) {
                throw ScenarioError(line, "no link " + tokens[1] + " " + tokens[2] +
                                              " (queue uses the link's node order)");
            }
            auto& link = net->link(it->second);
            if (tokens[3] == "fair") {
                link.set_queue_a(std::make_unique<link::FairQueue>(
                    12, 1500, [](const link::Packet& p) -> std::uint64_t {
                        auto key = core::classify_packet(p.bytes);
                        return key ? key->hash() : 0;
                    }));
            } else if (tokens[3] == "priority") {
                link.set_queue_a(std::make_unique<link::PriorityQueue>(
                    2, 24, [](const link::Packet& p) -> std::uint64_t {
                        auto key = core::classify_packet(p.bytes);
                        return (key && (key->tos & 0xf0) != 0) ? 0 : 1;
                    }));
            } else {
                throw ScenarioError(line, "queue must be 'fair' or 'priority'");
            }
        } else if (cmd == "fail" && tokens.size() == 6 && tokens[2] == "at" &&
                   tokens[4] == "for") {
            find_node(tokens[1], line);
            failures.push_back(PendingFailure{tokens[1], parse_duration(tokens[3], line),
                                              parse_duration(tokens[5], line)});
        } else if (cmd == "run" && tokens.size() == 2) {
            if (!routing_configured) net->use_static_routes();
            const auto duration = parse_duration(tokens[1], line);
            const auto t0 = net->sim().now();

            // Launch workloads.
            for (auto& spec : transfers) {
                spec.server = std::make_unique<app::BulkServer>(
                    find_host(spec.dst, line), next_port);
                spec.sender = std::make_unique<app::BulkSender>(
                    find_host(spec.src, line), find_host(spec.dst, line).address(),
                    next_port, spec.bytes);
                spec.sender->start();
                ++next_port;
            }
            for (auto& spec : voices) {
                spec.call = std::make_unique<app::VoiceOverUdp>(
                    find_host(spec.src, line), find_host(spec.dst, line),
                    next_port++);
                spec.call->start(spec.duration);
            }
            for (auto& spec : interactives) {
                app::InteractiveConfig config;
                config.tcp.nagle = false;
                spec.client = std::make_unique<app::InteractiveClient>(
                    find_host(spec.src, line), find_host(spec.dst, line).address(), 23,
                    config);
                spec.client->start();
            }
            // Schedule failures.
            for (const auto& failure : failures) {
                core::Node* node = &find_node(failure.node, line);
                net->sim().schedule_at(t0 + failure.at,
                                       [node] { node->set_down(true); });
                net->sim().schedule_at(t0 + failure.at + failure.duration,
                                       [node] { node->set_down(false); });
            }

            net->run_for(duration);
            for (auto& spec : interactives) spec.client->stop();
            net->run_for(sim::seconds(5));  // settle

            // Collect the report.
            report.simulated_seconds = net->sim().now().seconds();
            report.events = net->sim().events_processed();
            report.total_link_bytes = net->total_link_bytes();
            for (auto& spec : transfers) {
                ScenarioReport::Transfer t;
                t.src = spec.src;
                t.dst = spec.dst;
                t.bytes = spec.bytes;
                t.completed = spec.sender->finished();
                t.seconds = t.completed
                                ? (spec.sender->finish_time() - spec.sender->start_time())
                                      .seconds()
                                : -1;
                t.goodput_bps = spec.sender->throughput_bps();
                t.retransmits = spec.sender->socket_stats().retransmitted_segments;
                report.transfers.push_back(t);
            }
            for (auto& spec : voices) {
                report.voices.push_back(
                    ScenarioReport::Voice{spec.src, spec.dst, spec.call->report()});
            }
            for (auto& spec : interactives) {
                ScenarioReport::Interactive i;
                i.src = spec.src;
                i.dst = spec.dst;
                i.keystrokes = spec.client->keystrokes_sent();
                i.echoes = spec.client->echoes_received();
                i.rtt_p50_ms = spec.client->echo_rtts_ms().median();
                i.rtt_p99_ms = spec.client->echo_rtts_ms().percentile(99);
                report.interactives.push_back(i);
            }
            ran = true;
        } else {
            throw ScenarioError(line, "unrecognized directive '" + raw_line + "'");
        }
    }
    if (!ran) throw ScenarioError(line, "scenario never reached a 'run' directive");
    return report;
}

}  // namespace catenet::app
