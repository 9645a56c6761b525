// rpc: 64 client hosts send connection-per-request transactions to 4
// server hosts (app::RpcClient / app::RpcServer) across an 8-gateway ring
// of clean 1 Gb/s, 50 us trunks. Access links lose 1% of packets: 10 Mb/s
// for clients, 100 Mb/s for servers (10 Mb/s server links saturate and
// the run never drains). Poisson arrivals, mean 20 ms per client;
// header-only requests and 256-byte responses. Each unit is one epoch:
// arrivals for a fixed simulated interval, then a drain until every
// transaction is answered and every server connection has closed.
//
// Two library limits shape the traffic (both app::Rpc* bugs):
//  - RpcServer::on_bytes parses request padding as further requests, so
//    requests carry no padding;
//  - RpcClient shares one reassembly buffer across its concurrent
//    per-request connections, so a response must fit one segment.
// RpcServer also keeps every connection it ever accepted, so each epoch
// ends by replacing the servers, which bounds memory by one epoch.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/request_response.h"
#include "util/stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace catenet;

constexpr std::size_t kGateways = 8;
constexpr std::size_t kServers = 4;
constexpr std::size_t kClients = 64;
constexpr std::uint16_t kPort = 80;
constexpr sim::Time kStep = sim::milliseconds(10);
constexpr int kMaxDrainSteps = 30'000;  // 300 simulated seconds

link::LinkParams access_link(std::uint64_t bits_per_second) {
    link::LinkParams p;
    p.bits_per_second = bits_per_second;
    p.propagation_delay = sim::microseconds(100);
    p.drop_probability = 0.01;
    return p;
}

/// Transactions are tiny, so small socket buffers keep the thousands of
/// sockets an epoch creates cheap; TIME-WAIT is 2 s (MSL 1 s) so closed
/// client connections retire within a couple of epochs.
tcp::TcpConfig rpc_tcp() {
    tcp::TcpConfig c;
    c.send_buffer = 4096;
    c.recv_buffer = 4096;
    c.msl = sim::seconds(1);
    return c;
}

class Rpc final : public Workload {
public:
    explicit Rpc(const Options& opt)
        : Workload(opt.seed, 1),
          arrivals_(opt.tiny ? sim::milliseconds(200) : sim::seconds(1)) {
        core::Internetwork& n = net();
        link::LinkParams trunk;
        trunk.bits_per_second = 1'000'000'000;
        trunk.propagation_delay = sim::microseconds(50);
        const std::int64_t t_build = wall_ns();
        {
            Span span(SpanName::CoreBuild);
            for (std::size_t g = 0; g < kGateways; ++g) {
                gateways_.push_back(&n.add_gateway("gw" + std::to_string(g)));
            }
            for (std::size_t g = 0; g < kGateways; ++g) {
                n.connect(*gateways_[g], *gateways_[(g + 1) % kGateways], trunk);
            }
            const std::size_t heap_before = heap_bytes();
            for (std::size_t s = 0; s < kServers; ++s) {
                server_hosts_.push_back(&n.add_host("srv" + std::to_string(s)));
                n.connect(*server_hosts_.back(), *gateways_[2 * s], access_link(100'000'000));
            }
            for (std::size_t c = 0; c < kClients; ++c) {
                client_hosts_.push_back(&n.add_host("cli" + std::to_string(c)));
                n.connect(*client_hosts_.back(), *gateways_[c % kGateways],
                          access_link(10'000'000));
            }
            bytes_per_host_ = static_cast<double>(heap_bytes() - heap_before) /
                              static_cast<double>(kServers + kClients);
        }
        const std::int64_t t_routes = wall_ns();
        {
            Span span(SpanName::RoutingStatic);
            n.use_static_routes();
        }
        build_s_ = seconds_between(t_build, t_routes);
        routes_s_ = seconds_between(t_routes, wall_ns());

        for (core::Host* h : server_hosts_) {
            servers_.push_back(std::make_unique<app::RpcServer>(*h, kPort, rpc_tcp()));
        }
        app::RpcClientConfig config;
        config.request_extra_bytes = 0;
        config.response_bytes = 256;
        config.mean_interarrival = sim::milliseconds(20);
        config.connection_per_request = true;
        config.tcp = rpc_tcp();
        for (std::size_t c = 0; c < kClients; ++c) {
            clients_.push_back(std::make_unique<app::RpcClient>(
                *client_hosts_[c], server_hosts_[c % kServers]->address(), kPort, config));
        }
    }

    const char* op_unit() const override { return "transaction"; }
    const char* rate_name() const override { return "rpc_per_s"; }
    const char* rate_unit() const override { return "transactions/s"; }

    void run_unit() override {
        for (auto& c : clients_) c->start();
        for (sim::Time t; t < arrivals_; t += kStep) advance(kStep);
        for (auto& c : clients_) c->stop();
        int steps = 0;
        while (!drained()) {
            advance(kStep);
            if (++steps > kMaxDrainSteps) throw std::runtime_error("rpc: epoch did not drain");
        }
        // Every server connection has closed: replace the servers, which
        // frees the connections RpcServer would otherwise keep forever.
        for (std::size_t s = 0; s < kServers; ++s) {
            server_hosts_[s]->tcp().stop_listening(kPort);
            servers_[s] = std::make_unique<app::RpcServer>(*server_hosts_[s], kPort, rpc_tcp());
        }
        ++epochs_;
    }

    double ops() const override { return static_cast<double>(answered()); }

    Tally tally() const override {
        std::uint64_t issued = 0;
        for (const auto& c : clients_) issued += c->requests_sent();
        return Tally{issued, issued - std::min(issued, answered())};
    }

    void check(std::vector<std::string>&) const override {}

    void digest_fields(DigestFields& out) const override {
        util::Percentiles latency;
        for (const auto& c : clients_) latency.merge(c->latencies_ms());
        char p50[32];
        char p99[32];
        std::snprintf(p50, sizeof p50, "%.6f", latency.percentile(50.0));
        std::snprintf(p99, sizeof p99, "%.6f", latency.percentile(99.0));
        out.emplace_back("epochs", std::to_string(epochs_));
        out.emplace_back("answered", std::to_string(answered()));
        out.emplace_back("latency_p50_ms", p50);
        out.emplace_back("latency_p99_ms", p99);
    }

    FibProbe fib_probe() const override {
        FibProbe probe;
        probe.table = &gateways_[kGateways / 2]->ip().routing_table();
        for (const core::Host* h : server_hosts_) probe.destinations.push_back(h->address());
        for (const core::Host* h : client_hosts_) probe.destinations.push_back(h->address());
        return probe;
    }

private:
    std::uint64_t answered() const {
        std::uint64_t total = 0;
        for (const auto& c : clients_) total += c->responses_received();
        return total;
    }

    bool drained() {
        for (const auto& c : clients_) {
            if (c->responses_received() != c->requests_sent()) return false;
        }
        for (core::Host* h : server_hosts_) {
            if (h->tcp().connection_count() != 0) return false;
        }
        return true;
    }

    sim::Time arrivals_;
    std::vector<core::Gateway*> gateways_;
    std::vector<core::Host*> server_hosts_;
    std::vector<core::Host*> client_hosts_;
    std::vector<std::unique_ptr<app::RpcServer>> servers_;
    std::vector<std::unique_ptr<app::RpcClient>> clients_;
    std::uint32_t epochs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rpc(const Options& opt) {
    return std::make_unique<Rpc>(opt);
}

}  // namespace perfbench
