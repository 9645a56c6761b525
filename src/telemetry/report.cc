#include "telemetry/report.h"

#include <cinttypes>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "telemetry/flight_recorder.h"

namespace catenet::telemetry {

namespace {

// Fixed-format double for JSON: enough digits to round-trip the values we
// report, same spelling on every platform-independent code path.
std::string fmt_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void append_counters_json(std::string& out, const CounterBlock& block,
                          bool nonzero_only) {
    out += '{';
    bool first = true;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (nonzero_only && block.slots[i] == 0) continue;
        if (!first) out += ',';
        first = false;
        out += '"';
        out += counter_name(static_cast<Counter>(i));
        out += "\":";
        out += std::to_string(block.slots[i]);
    }
    out += '}';
}

void append_direction_json(std::string& out, std::uint64_t pkts,
                           std::uint64_t bytes, double util) {
    out += "{\"pkts\":" + std::to_string(pkts);
    out += ",\"bytes\":" + std::to_string(bytes);
    out += ",\"util\":";
    out += util < 0.0 ? "null" : fmt_double(util);
    out += '}';
}

}  // namespace

MetricsReport MetricsReport::collect(const Registry& registry, sim::Time now,
                                     const FlightRecorder* recorder) {
    MetricsReport r;
    r.now_ns = now.nanos();
    r.totals = registry.totals();
    for (std::size_t i = 0; i < registry.nodes().size(); ++i) {
        const NodeEntry& n = registry.nodes()[i];
        r.nodes.push_back(NodeCounters{n.name, n.shard, registry.node_totals(i)});
    }
    const double elapsed_ns = static_cast<double>(r.now_ns);
    for (const LinkEntry& l : registry.links()) {
        LinkRow row;
        row.name = l.name;
        row.boundary = l.boundary;
        if (l.if_a != nullptr) {
            row.pkts_a_to_b = l.if_a->packets_sent;
            row.bytes_a_to_b = l.if_a->bytes_sent;
            if (elapsed_ns > 0 && l.if_a->busy_ns > 0)
                row.util_a_to_b = static_cast<double>(l.if_a->busy_ns) / elapsed_ns;
        }
        if (l.if_b != nullptr) {
            row.pkts_b_to_a = l.if_b->packets_sent;
            row.bytes_b_to_a = l.if_b->bytes_sent;
            if (elapsed_ns > 0 && l.if_b->busy_ns > 0)
                row.util_b_to_a = static_cast<double>(l.if_b->busy_ns) / elapsed_ns;
        }
        for (const auto& queue_of : {l.queue_a, l.queue_b}) {
            const link::QueueStats* q = queue_of ? queue_of() : nullptr;
            if (q != nullptr) {
                row.queue_drops += q->dropped;
                row.queue_bytes_dropped += q->bytes_dropped;
            }
        }
        if (l.chan_a_to_b != nullptr) {
            row.channel_lost += l.chan_a_to_b->packets_lost;
            row.channel_corrupted += l.chan_a_to_b->packets_corrupted;
        }
        if (l.chan_b_to_a != nullptr) {
            row.channel_lost += l.chan_b_to_a->packets_lost;
            row.channel_corrupted += l.chan_b_to_a->packets_corrupted;
        }
        r.links.push_back(std::move(row));
    }
    for (const EngineEntry& e : registry.engines()) {
        r.engines.push_back(EngineRow{e.shard, e.sim->engine_stats()});
    }
    for (std::size_t i = 0; i < registry.series_count(); ++i) {
        const GaugeSeries& s = registry.series(i);
        GaugeRow row;
        row.name = s.name();
        row.samples = s.total();
        if (row.samples > 0) {
            row.min = s.stats().min();
            row.max = s.stats().max();
            row.mean = s.stats().mean();
            row.last = s.last().value;
        }
        r.gauges.push_back(std::move(row));
    }
    if (recorder != nullptr) {
        r.recorder_attached = true;
        r.recorder_records = recorder->total_records();
        r.recorder_overwritten = recorder->total_overwritten();
    }
    return r;
}

std::string MetricsReport::to_json() const {
    std::string out;
    out += "{\"t_ns\":" + std::to_string(now_ns);
    out += ",\"totals\":";
    append_counters_json(out, totals, /*nonzero_only=*/false);
    out += ",\"nodes\":[";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"name\":\"" + json_escape(nodes[i].name) + "\"";
        out += ",\"shard\":" + std::to_string(nodes[i].shard);
        out += ",\"counters\":";
        append_counters_json(out, nodes[i].block, /*nonzero_only=*/true);
        out += '}';
    }
    out += "],\"links\":[";
    for (std::size_t i = 0; i < links.size(); ++i) {
        const LinkRow& l = links[i];
        if (i > 0) out += ',';
        out += "{\"name\":\"" + json_escape(l.name) + "\"";
        out += ",\"boundary\":";
        out += l.boundary ? "true" : "false";
        out += ",\"a_to_b\":";
        append_direction_json(out, l.pkts_a_to_b, l.bytes_a_to_b, l.util_a_to_b);
        out += ",\"b_to_a\":";
        append_direction_json(out, l.pkts_b_to_a, l.bytes_b_to_a, l.util_b_to_a);
        out += ",\"queue_drops\":" + std::to_string(l.queue_drops);
        out += ",\"queue_bytes_dropped\":" + std::to_string(l.queue_bytes_dropped);
        out += ",\"channel_lost\":" + std::to_string(l.channel_lost);
        out += ",\"channel_corrupted\":" + std::to_string(l.channel_corrupted);
        out += '}';
    }
    out += "],\"engines\":[";
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const sim::EngineStats& e = engines[i].stats;
        if (i > 0) out += ',';
        out += "{\"shard\":" + std::to_string(engines[i].shard);
        out += ",\"events\":" + std::to_string(e.events);
        out += ",\"stale_skimmed\":" + std::to_string(e.stale_skimmed);
        out += ",\"heap_max\":" + std::to_string(e.heap_max);
        out += ",\"far_max\":" + std::to_string(e.far_max);
        out += '}';
    }
    out += "],\"gauges\":[";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        const GaugeRow& g = gauges[i];
        if (i > 0) out += ',';
        out += "{\"name\":\"" + json_escape(g.name) + "\"";
        out += ",\"samples\":" + std::to_string(g.samples);
        if (g.samples == 0) {
            // An empty series made no observation: null, not 0.0.
            out += ",\"min\":null,\"max\":null,\"mean\":null,\"last\":null";
        } else {
            out += ",\"min\":" + fmt_double(g.min);
            out += ",\"max\":" + fmt_double(g.max);
            out += ",\"mean\":" + fmt_double(g.mean);
            out += ",\"last\":" + fmt_double(g.last);
        }
        out += '}';
    }
    out += "],\"recorder\":";
    if (recorder_attached) {
        out += "{\"records\":" + std::to_string(recorder_records);
        out += ",\"overwritten\":" + std::to_string(recorder_overwritten) + "}";
    } else {
        out += "null";
    }
    out += "}";
    return out;
}

std::string MetricsReport::to_table() const {
    std::ostringstream os;
    os << "== catenet metrics @ t=" << std::fixed << std::setprecision(6)
       << static_cast<double>(now_ns) / 1e9 << "s ==\n";
    os << "-- counters (totals, nonzero) --\n";
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (totals.slots[i] == 0) continue;
        os << "  " << std::left << std::setw(28)
           << counter_name(static_cast<Counter>(i)) << std::right << std::setw(12)
           << totals.slots[i] << "\n";
    }
    if (!links.empty()) {
        os << "-- links --\n";
        for (const LinkRow& l : links) {
            os << "  " << std::left << std::setw(16) << l.name << std::right;
            os << " a>b " << std::setw(8) << l.pkts_a_to_b << " pkts";
            if (l.util_a_to_b >= 0.0)
                os << " (" << std::setprecision(1) << l.util_a_to_b * 100.0 << "% util)";
            os << ", b>a " << std::setw(8) << l.pkts_b_to_a << " pkts";
            if (l.util_b_to_a >= 0.0)
                os << " (" << std::setprecision(1) << l.util_b_to_a * 100.0 << "% util)";
            if (l.queue_drops > 0) os << ", qdrop " << l.queue_drops;
            if (l.channel_lost > 0) os << ", lost " << l.channel_lost;
            if (l.channel_corrupted > 0) os << ", corrupt " << l.channel_corrupted;
            os << "\n";
        }
    }
    if (!engines.empty()) {
        os << "-- engines --\n";
        for (const EngineRow& e : engines) {
            os << "  shard " << e.shard << ": " << e.stats.events << " events, "
               << e.stats.stale_skimmed << " stale skimmed, heap max " << e.stats.heap_max
               << ", far max " << e.stats.far_max << "\n";
        }
    }
    if (!gauges.empty()) {
        os << "-- gauges --\n";
        for (const GaugeRow& g : gauges) {
            os << "  " << std::left << std::setw(28) << g.name << std::right;
            if (g.samples == 0) {
                os << " (no samples)\n";
                continue;
            }
            os << " n=" << g.samples << std::setprecision(3) << " min=" << g.min
               << " mean=" << g.mean << " max=" << g.max << " last=" << g.last
               << "\n";
        }
    }
    if (recorder_attached) {
        os << "-- flight recorder --\n  " << recorder_records << " records ("
           << recorder_overwritten << " overwritten)\n";
    }
    return os.str();
}

}  // namespace catenet::telemetry
