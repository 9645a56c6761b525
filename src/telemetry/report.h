// MetricsReport: a point-in-time snapshot of the registry rendered two
// ways — deterministic JSON (machine diffing, bench artifacts) and a
// human table (examples print it at exit). Collection copies everything
// out of the live structures, so a report outlives the run that produced
// it. JSON field order is fixed and doubles are printed with a fixed
// format, so two runs of the same seed produce byte-identical files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "telemetry/counters.h"
#include "telemetry/registry.h"

namespace catenet::telemetry {

class FlightRecorder;

struct MetricsReport {
    struct NodeCounters {
        std::string name;
        std::uint32_t shard = 0;
        CounterBlock block;
    };
    struct LinkRow {
        std::string name;
        bool boundary = false;
        std::uint64_t pkts_a_to_b = 0, bytes_a_to_b = 0;
        std::uint64_t pkts_b_to_a = 0, bytes_b_to_a = 0;
        std::uint64_t queue_drops = 0, queue_bytes_dropped = 0;
        std::uint64_t channel_lost = 0, channel_corrupted = 0;
        /// Fraction of the run each direction's transmitter was busy;
        /// negative (null in JSON) when it never transmitted.
        double util_a_to_b = -1.0, util_b_to_a = -1.0;
    };
    struct GaugeRow {
        std::string name;
        std::uint64_t samples = 0;  ///< 0 ⇒ min/max/mean/last are meaningless
        double min = 0.0, max = 0.0, mean = 0.0, last = 0.0;
    };

    std::int64_t now_ns = 0;
    CounterBlock totals;
    std::vector<NodeCounters> nodes;
    std::vector<LinkRow> links;
    std::vector<GaugeRow> gauges;
    bool recorder_attached = false;
    std::uint64_t recorder_records = 0;
    std::uint64_t recorder_overwritten = 0;

    static MetricsReport collect(const Registry& registry, sim::Time now,
                                 const FlightRecorder* recorder = nullptr);

    /// Deterministic JSON. Counters appear in Counter slot order; per-node
    /// objects list only nonzero slots; an empty gauge series reports its
    /// statistics as null, never as zeros (a series that saw nothing made
    /// no observation — see util::RunningStats' empty-accumulator caveat).
    std::string to_json() const;

    /// Human-readable summary table.
    std::string to_table() const;
};

}  // namespace catenet::telemetry
