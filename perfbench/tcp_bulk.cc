// tcp_bulk: 16 concurrent bulk TCP connections between materialized
// hosts across an 8-gateway ring of clean 1 Gb/s, 50 us links with
// 512-packet queues. Sender i
// sits on gateway i mod 8 and its receiver half the ring away, so every
// flow crosses four trunks. MSS 1460 and the default TcpConfig (offload
// on). Each unit asks every sender for one more chunk, pumped through
// TcpSocket::send from the flow's byte pattern, and runs until every byte
// has arrived; the receive handler checks each delivered byte against
// the pattern.
#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "workload.h"

namespace perfbench {
namespace {

using namespace catenet;

constexpr std::size_t kGateways = 8;
constexpr std::size_t kFlows = 16;
constexpr std::uint16_t kPort = 5001;
/// A flow's stream repeats a pattern of prime length, so segment and
/// chunk boundaries drift across it and a misplaced byte shows.
constexpr std::size_t kPatternBytes = 65521;
/// Chunks are whole 1460-byte segments: a sub-MSS tail would wait out the
/// receiver's 200 ms delayed ACK under Nagle at the end of every unit.
constexpr std::uint64_t kMss = 1460;
constexpr sim::Time kStep = sim::milliseconds(1);
constexpr int kMaxSteps = 600'000;  // 10 simulated minutes per unit

/// 512-packet queues hold the eight 64 KiB windows that share a trunk, so
/// no queue overflows: the flows run window-limited at line rate instead
/// of stalling on retransmission timeouts.
link::LinkParams clean_gigabit() {
    link::LinkParams p;
    p.bits_per_second = 1'000'000'000;
    p.propagation_delay = sim::microseconds(50);
    p.queue_capacity_packets = 512;
    return p;
}

std::vector<std::uint8_t> make_pattern(std::uint64_t seed, std::size_t flow) {
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + flow + 1;
    std::vector<std::uint8_t> bytes(kPatternBytes);
    for (std::uint8_t& b : bytes) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        b = static_cast<std::uint8_t>(state >> 24);
    }
    return bytes;
}

class TcpBulk final : public Workload {
public:
    explicit TcpBulk(const Options& opt)
        : Workload(opt.seed, 1), chunk_(kMss * (opt.tiny ? 45 : 718)) {
        core::Internetwork& n = net();
        const link::LinkParams link = clean_gigabit();
        std::vector<core::Host*> senders;
        std::vector<core::Host*> receivers;
        const std::int64_t t_build = wall_ns();
        {
            Span span(SpanName::CoreBuild);
            for (std::size_t g = 0; g < kGateways; ++g) {
                gateways_.push_back(&n.add_gateway("gw" + std::to_string(g)));
            }
            for (std::size_t g = 0; g < kGateways; ++g) {
                n.connect(*gateways_[g], *gateways_[(g + 1) % kGateways], link);
            }
            const std::size_t heap_before = heap_bytes();
            for (std::size_t i = 0; i < kFlows; ++i) {
                senders.push_back(&n.add_host("s" + std::to_string(i)));
                n.connect(*senders.back(), *gateways_[i % kGateways], link);
                receivers.push_back(&n.add_host("r" + std::to_string(i)));
                n.connect(*receivers.back(), *gateways_[(i + kGateways / 2) % kGateways],
                          link);
            }
            bytes_per_host_ = static_cast<double>(heap_bytes() - heap_before) /
                              static_cast<double>(2 * kFlows);
        }
        const std::int64_t t_routes = wall_ns();
        {
            Span span(SpanName::RoutingStatic);
            n.use_static_routes();
        }
        build_s_ = seconds_between(t_build, t_routes);
        routes_s_ = seconds_between(t_routes, wall_ns());

        // The handshakes. flows_ is sized once: the callbacks index it.
        flows_.resize(kFlows);
        for (std::size_t i = 0; i < kFlows; ++i) {
            Flow& f = flows_[i];
            f.pattern = make_pattern(opt.seed, i);
            receivers[i]->tcp().listen(kPort, [this, i](std::shared_ptr<tcp::TcpSocket> s) {
                flows_[i].rx = s;
                s->on_data = [this, i](std::span<const std::uint8_t> data) {
                    receive(flows_[i], data);
                };
            });
            f.tx = senders[i]->tcp().connect(receivers[i]->address(), kPort);
            f.tx->on_send_space = [this, i] { pump(flows_[i]); };
        }
        int steps = 0;
        while (!std::all_of(flows_.begin(), flows_.end(), [](const Flow& f) {
            return f.tx->connected() && f.rx != nullptr;
        })) {
            advance(kStep);
            if (++steps > kMaxSteps) throw std::runtime_error("tcp_bulk: handshakes stalled");
        }
        for (const core::Host* h : receivers) destinations_.push_back(h->address());
        for (const core::Host* h : senders) destinations_.push_back(h->address());
    }

    const char* op_unit() const override { return "MB"; }
    const char* rate_name() const override { return "goodput_MBps"; }
    const char* rate_unit() const override { return "MB/s"; }

    void run_unit() override {
        for (Flow& f : flows_) {
            f.goal += chunk_;
            pump(f);
        }
        int steps = 0;
        while (!std::all_of(flows_.begin(), flows_.end(),
                            [](const Flow& f) { return f.received == f.goal; })) {
            advance(kStep);
            if (++steps > kMaxSteps) throw std::runtime_error("tcp_bulk: unit did not drain");
        }
    }

    double ops() const override { return static_cast<double>(verified()) / 1e6; }

    Tally tally() const override {
        Tally t;
        for (const Flow& f : flows_) {
            t.attempted += f.queued;
            t.failed += (f.queued - std::min(f.queued, f.received)) + f.mismatched;
        }
        return t;
    }

    void check(std::vector<std::string>& failures) const override {
        for (const Flow& f : flows_) {
            if (f.received > f.queued) {
                failures.push_back("a receiver got more bytes than its sender queued");
                return;
            }
        }
    }

    void digest_fields(DigestFields& out) const override {
        std::uint64_t queued = 0;
        for (const Flow& f : flows_) queued += f.queued;
        out.emplace_back("queued", std::to_string(queued));
        out.emplace_back("verified", std::to_string(verified()));
    }

    FibProbe fib_probe() const override {
        return FibProbe{&gateways_[kGateways / 2]->ip().routing_table(), destinations_};
    }

private:
    struct Flow {
        std::shared_ptr<tcp::TcpSocket> tx;
        std::shared_ptr<tcp::TcpSocket> rx;
        std::vector<std::uint8_t> pattern;
        std::uint64_t goal = 0;        ///< bytes the benchmark wants sent so far
        std::uint64_t queued = 0;      ///< bytes send() accepted
        std::uint64_t received = 0;    ///< bytes on_data delivered
        std::uint64_t mismatched = 0;  ///< delivered bytes that broke the pattern
    };

    void pump(Flow& f) {
        while (f.queued < f.goal) {
            const std::size_t at = f.queued % kPatternBytes;
            const std::size_t want =
                std::min<std::uint64_t>(kPatternBytes - at, f.goal - f.queued);
            std::size_t accepted = 0;
            {
                Span span(SpanName::TcpSend);
                accepted = f.tx->send(std::span<const std::uint8_t>(f.pattern).subspan(at, want));
            }
            f.queued += accepted;
            if (accepted < want) return;
        }
    }

    void receive(Flow& f, std::span<const std::uint8_t> data) {
        Span span(SpanName::AppOnData);
        while (!data.empty()) {
            const std::size_t at = f.received % kPatternBytes;
            const std::size_t n = std::min(kPatternBytes - at, data.size());
            if (std::memcmp(data.data(), f.pattern.data() + at, n) != 0) {
                for (std::size_t k = 0; k < n; ++k) {
                    if (data[k] != f.pattern[at + k]) ++f.mismatched;
                }
            }
            f.received += n;
            data = data.subspan(n);
        }
    }

    std::uint64_t verified() const {
        std::uint64_t total = 0;
        for (const Flow& f : flows_) total += f.received - f.mismatched;
        return total;
    }

    std::uint64_t chunk_;
    std::vector<core::Gateway*> gateways_;
    std::vector<util::Ipv4Address> destinations_;
    std::vector<Flow> flows_;
};

}  // namespace

std::unique_ptr<Workload> make_tcp_bulk(const Options& opt) {
    return std::make_unique<TcpBulk>(opt);
}

}  // namespace perfbench
