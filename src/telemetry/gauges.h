// Gauge time-series: periodic snapshots of instantaneous state (queue
// depth, cwnd, flight size, srtt, link utilization) that counters cannot
// express. Each series is a fixed-capacity ring of (t_ns, value) samples
// plus a RunningStats over everything it ever saw; the sampler is an
// ordinary simulator event, so sampling is deterministic, replayable, and
// per-shard (a sampler runs on one shard's engine and touches only that
// shard's nodes — the same single-writer rule as the counter blocks).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/timer.h"
#include "util/stats.h"

namespace catenet::telemetry {

/// One gauge's history: bounded ring of samples (most recent kept) and
/// streaming moments over the full run.
class GaugeSeries {
public:
    struct Sample {
        std::int64_t t_ns;
        double value;
    };

    GaugeSeries(std::string name, std::size_t capacity) : name_(std::move(name)) {
        std::size_t cap = 1;
        while (cap < capacity) cap <<= 1;
        ring_.resize(cap);
    }

    void record(std::int64_t t_ns, double value) noexcept {
        ring_[total_ & (ring_.size() - 1)] = Sample{t_ns, value};
        ++total_;
        stats_.add(value);
    }

    const std::string& name() const noexcept { return name_; }
    std::uint64_t total() const noexcept { return total_; }
    std::size_t held() const noexcept {
        return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
    }
    const Sample& at(std::size_t i) const noexcept {
        return ring_[(total_ - held() + i) & (ring_.size() - 1)];
    }
    /// Most recent sample; meaningless when total() == 0.
    const Sample& last() const noexcept { return at(held() - 1); }

    /// Moments over every sample ever recorded. NOTE: when empty,
    /// RunningStats reports min() and max() as NaN and mean() as 0.0 — an
    /// empty series must be reported explicitly (null), never as an
    /// observation of zero; MetricsReport does exactly that.
    const util::RunningStats& stats() const noexcept { return stats_; }

private:
    std::string name_;
    std::vector<Sample> ring_;
    std::uint64_t total_ = 0;
    util::RunningStats stats_;
};

/// A probe reads one instantaneous value; returning nullopt skips the
/// sample (e.g. the watched socket is gone). Probes may hold mutable
/// closure state — the utilization probe keeps the previous busy-time
/// reading to differentiate a cumulative counter.
using GaugeProbe = std::function<std::optional<double>()>;

/// Samples a set of probes into their series at a fixed period on one
/// simulator. Steady-state cost: one timer re-arm (allocation-free) plus
/// one ring store per probe.
class GaugeSampler {
public:
    explicit GaugeSampler(sim::Simulator& sim);

    /// Registers a probe feeding `series`. The series must outlive the
    /// sampler's last tick; both usually live in the Registry.
    void add(GaugeSeries* series, GaugeProbe probe);

    void start(sim::Time period);
    void stop() { timer_.stop(); }
    bool running() const noexcept { return timer_.running(); }
    sim::Time period() const noexcept { return period_; }

private:
    void tick();

    sim::Simulator& sim_;
    sim::PeriodicTimer timer_;
    sim::Time period_;
    struct Entry {
        GaugeSeries* series;
        GaugeProbe probe;
    };
    std::vector<Entry> entries_;
};

/// Wraps a cumulative busy-nanoseconds reading into a utilization-in-
/// [0,1] probe: each tick reports (Δbusy / Δt) since the previous tick.
GaugeProbe make_utilization_probe(sim::Simulator& sim,
                                  std::function<std::uint64_t()> busy_ns);

}  // namespace catenet::telemetry
