// The interface every catbench workload implements. A workload builds its
// internet in its constructor, which is the set-up the driver times (a
// soak's set-up also runs one warm-up wave), and then runs in units: one
// traffic wave, one bulk chunk, one RPC epoch. Every unit ends once its
// traffic is delivered, at a simulated time the simulation alone decides,
// so the work done by the first N units is a pure function of the seed —
// the digest is taken at such a checkpoint — while the number of units in
// a run follows the wall-clock budget.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/internetwork.h"
#include "ip/routing_table.h"
#include "sim/parallel.h"
#include "trace.h"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;         ///< self-test size: same code, small network
    bool break_trunk = false;  ///< self-test: cut a trunk after the first timed unit
    std::string spans_path;    ///< where a traced run writes its spans
};

/// Conservation in the workload's own terms (datagrams, bytes,
/// transactions): failed = attempted - verified.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/// Named values folded into the digest besides the counter totals.
using DigestFields = std::vector<std::pair<std::string, std::string>>;

/// A RoutingTable::lookup loop target: one transit gateway's table and
/// destinations spread across the workload's hosts.
struct FibProbe {
    const catenet::ip::RoutingTable* table = nullptr;
    std::vector<catenet::util::Ipv4Address> destinations;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// What one op is ("datagram", "MB", "transaction") and the name and
    /// unit the rate goes by in this workload's report.
    virtual const char* op_unit() const = 0;
    virtual const char* rate_name() const = 0;
    virtual const char* rate_unit() const = 0;

    /// One unit of timed work; returns once the unit's traffic is delivered.
    virtual void run_unit() = 0;
    /// Ops completed so far (verified deliveries).
    virtual double ops() const = 0;
    virtual Tally tally() const = 0;
    /// Workload-specific checks beyond the tally; appends failures.
    virtual void check(std::vector<std::string>& failures) const = 0;
    virtual void digest_fields(DigestFields& out) const = 0;
    virtual FibProbe fib_probe() const = 0;
    /// Cuts one trunk (the self-test's broken input). Soaks only.
    virtual void break_input();

    /// Set-up phases, measured by the workload while it builds.
    double build_s() const noexcept { return build_s_; }
    double routes_s() const noexcept { return routes_s_; }
    /// Marginal heap bytes per host over the host population's build.
    double bytes_per_host() const noexcept { return bytes_per_host_; }

    catenet::core::Internetwork& net() noexcept { return *net_; }
    const catenet::core::Internetwork& net() const noexcept { return *net_; }
    std::uint64_t events() const;
    std::size_t pending() const;
    std::size_t shards() const noexcept { return psim_ ? psim_->shard_count() : 1; }

    /// Statistics of advance() since the last reset: the highest pending
    /// event count seen at a checkpoint, and (while tracing) wall and CPU
    /// time inside run_for.
    struct RunStats {
        std::size_t pending_max = 0;
        std::int64_t wall_ns = 0;
        std::int64_t cpu_ns = 0;
    };
    const RunStats& run_stats() const noexcept { return run_stats_; }
    void reset_run_stats() noexcept { run_stats_ = RunStats{}; }

protected:
    /// Creates the internet: sequential, or on `shards` engines with one
    /// thread each.
    Workload(std::uint64_t seed, std::size_t shards);

    /// Runs the network `duration` further inside a sim.run span, then
    /// samples the pending-event count (a fixed simulated-time checkpoint).
    void advance(catenet::sim::Time duration);

    double build_s_ = 0.0;
    double routes_s_ = 0.0;
    double bytes_per_host_ = 0.0;

private:
    std::unique_ptr<catenet::sim::ParallelSimulator> psim_;  ///< outlives net_
    std::unique_ptr<catenet::core::Internetwork> net_;
    RunStats run_stats_;
};

std::unique_ptr<Workload> make_soak(const Options& opt, bool sharded);
std::unique_ptr<Workload> make_tcp_bulk(const Options& opt);
std::unique_ptr<Workload> make_rpc(const Options& opt);

/// Seconds between two wall_ns() readings.
inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace perfbench
