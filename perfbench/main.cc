// catbench: one catenet workload, timed end to end and per layer.
//
//   catbench --workload soak|soak_sharded|tcp_bulk|rpc --seed N --seconds S
//            --trace 0|1 [--tiny] [--break-trunk] [--spans FILE]
//
// A run sets the workload up several times (set-up time is the median),
// keeps the last internet, then runs units of work in 50 wall-clock
// slices until --seconds have passed; the rate is the ops of the whole
// timed phase over its wall time, and the slice rates are printed beside
// it. With --trace 1, even slices record spans around the benchmark's
// calls into catenet and odd slices do not, so the slices give the
// per-layer numbers and the tracing overhead from one process;
// allocations are counted in the untraced slices. Counts are deltas of
// catenet's own counters over the timed phase.
//
// The digest — counter totals without the four offload-shape slots,
// simulated time and workload tallies — is taken after a fixed number of
// units, so it depends on the seed alone and must repeat across runs
// (and match between soak and soak_sharded). Peak RSS is read when the
// run ends, except in rpc: app::RpcClient keeps every latency sample, so
// rpc reads it after a fixed number of epochs instead.
//
// Output: a human-readable report, then one JSON object on the last line.
// Exit status 1 when a check failed, 2 on bad usage, 3 on an error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "telemetry/counters.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace catenet;
using telemetry::Counter;

constexpr int kSlices = 50;
/// Percentiles tried, highest first, for a span's tail: the first with at
/// least ten samples beyond it is reported.
constexpr std::array<double, 4> kTailPercentiles = {99.99, 99.9, 99.0, 90.0};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: catbench --workload soak|soak_sharded|tcp_bulk|rpc --seed N\n"
                 "                --seconds S --trace 0|1 [--tiny] [--break-trunk]\n"
                 "                [--spans FILE]\n");
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            opt.trace = value() != "0";
        } else if (arg == "--spans") {
            opt.spans_path = value();
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--break-trunk") {
            opt.break_trunk = true;
        } else {
            usage();
        }
    }
    if (opt.workload.empty() || !(opt.seconds > 0.0)) usage();
    return opt;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
    if (opt.workload == "soak") return make_soak(opt, false);
    if (opt.workload == "soak_sharded") return make_soak(opt, true);
    if (opt.workload == "tcp_bulk") return make_tcp_bulk(opt);
    if (opt.workload == "rpc") return make_rpc(opt);
    usage();
}

bool is_soak(const Options& opt) { return opt.workload.rfind("soak", 0) == 0; }

/// Units before the digest checkpoint.
int digest_units(const Options& opt) {
    if (opt.workload == "rpc") return opt.tiny ? 1 : 2;
    return opt.tiny ? 2 : 4;
}

/// Units after which peak RSS is read; 0 reads it when the run ends.
int rss_units(const Options& opt) {
    if (opt.workload == "rpc") return opt.tiny ? 2 : 32;
    return 0;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// p-th percentile of sorted samples, linear between order statistics.
double quantile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Process max RSS so far (getrusage), in MB.
double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Sum of queue drops, channel losses and send failures over every
/// registered link.
std::uint64_t link_drops(const telemetry::Registry& registry) {
    std::uint64_t total = 0;
    for (const telemetry::LinkEntry& l : registry.links()) {
        for (const auto* queue : {&l.queue_a, &l.queue_b}) {
            if (*queue) {
                if (const link::QueueStats* q = (*queue)()) total += q->dropped;
            }
        }
        for (const link::ChannelStats* c : {l.chan_a_to_b, l.chan_b_to_a}) {
            if (c != nullptr) total += c->packets_lost;
        }
        for (const link::NetIfStats* s : {l.if_a, l.if_b}) {
            if (s != nullptr) total += s->send_failures;
        }
    }
    return total;
}

struct Snapshot {
    telemetry::CounterBlock counters;
    std::uint64_t link_drops = 0;
    std::uint64_t events = 0;
    double ops = 0.0;
};

Snapshot snapshot(Workload& w) {
    return Snapshot{w.net().metrics().totals(), link_drops(w.net().metrics()), w.events(),
                    w.ops()};
}

struct Digest {
    std::string hex;
    DigestFields fields;
};

Digest take_digest(Workload& w) {
    Digest d;
    const telemetry::CounterBlock totals = w.net().metrics().totals();
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const auto c = static_cast<Counter>(i);
        if (!telemetry::offload_diagnostic(c)) {
            d.fields.emplace_back(telemetry::counter_name(c), std::to_string(totals.slots[i]));
        }
    }
    d.fields.emplace_back("sim_time_ns", std::to_string(w.net().now().nanos()));
    w.digest_fields(d.fields);
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a
    for (const auto& [name, value] : d.fields) {
        for (const char ch : name + "=" + value + ";") {
            h ^= static_cast<unsigned char>(ch);
            h *= 1099511628211ull;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
    d.hex = hex;
    return d;
}

struct Slice {
    bool traced = false;
    double wall_s = 0.0;
    double ops = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::size_t span_begin = 0;
    std::size_t span_end = 0;
};

struct SpanStats {
    double self_s = 0.0;
    std::vector<double> durations_us;
};

/// Self time and duration samples per span name over the index ranges.
std::array<SpanStats, kSpanNames> aggregate_spans(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
        if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::array<SpanStats, kSpanNames> out;
    for (const auto& [begin, end] : ranges) {
        for (std::size_t i = begin; i < end; ++i) {
            const SpanRecord& s = spans[i];
            SpanStats& st = out[static_cast<std::size_t>(s.name)];
            const std::int64_t duration = s.end_ns - s.start_ns;
            st.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
            st.durations_us.push_back(static_cast<double>(duration) * 1e-3);
        }
    }
    return out;
}

/// "<label>.p50_us", ".phi_us", ".phi_pct" and ".n" for one span name:
/// the median and the highest percentile that has at least ten samples
/// beyond it (0 when the span has too few samples).
void add_percentiles(std::vector<Metric>& out, const std::string& label, SpanStats& st) {
    std::vector<double>& d = st.durations_us;
    std::sort(d.begin(), d.end());
    const double n = static_cast<double>(d.size());
    double tail = 0.0;
    double tail_pct = 0.0;
    for (const double p : kTailPercentiles) {
        if (n * (1.0 - p / 100.0) >= 10.0) {
            tail = quantile(d, p);
            tail_pct = p;
            break;
        }
    }
    out.push_back({label + ".p50_us", n / 2 >= 10 ? quantile(d, 50.0) : 0.0, "us"});
    out.push_back({label + ".phi_us", tail, "us"});
    out.push_back({label + ".phi_pct", tail_pct, "%"});
    out.push_back({label + ".n", n, "count"});
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void write_spans(const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "catbench: cannot write %s\n", path.c_str());
        return;
    }
    const auto& spans = tracer().spans();
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\n", i, span_label(s.name),
                     static_cast<long long>(s.start_ns - origin),
                     static_cast<long long>(s.end_ns - origin), s.parent);
    }
    std::fclose(f);
}

int run(const Options& opt) {
    // --- set-up, several times; the last internet is kept ----------------
    // A soak's set-up ends with one warm-up wave, which fills route caches,
    // buffer pools and lazily built FIBs. tcp_bulk's and rpc's set-up (the
    // build, routes and tcp_bulk's handshakes) takes a few milliseconds, so
    // it is repeated more often; their warm-up unit runs once, untimed, on
    // the internet that is kept.
    const bool warm_up_in_setup = is_soak(opt);
    const int reps = opt.tiny ? 2 : (warm_up_in_setup ? 5 : 51);
    std::vector<double> setup_s;
    std::vector<double> build_s;
    std::vector<double> routes_s;
    std::vector<double> bytes_per_host;
    std::unique_ptr<Workload> w;
    for (int r = 0; r < reps; ++r) {
        w.reset();  // the previous internet is freed outside the timing
        tracer().enabled = opt.trace;
        const std::int64_t t0 = wall_ns();
        w = make_workload(opt);
        tracer().enabled = false;
        if (warm_up_in_setup) w->run_unit();
        setup_s.push_back(seconds_between(t0, wall_ns()));
        build_s.push_back(w->build_s());
        routes_s.push_back(w->routes_s());
        bytes_per_host.push_back(w->bytes_per_host());
    }
    if (!warm_up_in_setup) w->run_unit();

    // --- timed phase ------------------------------------------------------
    const Snapshot before = snapshot(*w);
    w->reset_run_stats();
    const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
    const std::int64_t slice_ns = budget_ns / kSlices;
    const int checkpoint = digest_units(opt);
    const int rss_checkpoint = rss_units(opt);
    const int min_units = std::max(checkpoint, rss_checkpoint);
    const std::size_t min_slices = opt.trace ? 2 : 1;
    std::vector<Slice> slices;
    Digest digest;
    double rss_mb = 0.0;
    int units = 0;
    const std::int64_t start = wall_ns();
    while (true) {
        Slice s;
        s.traced = opt.trace && slices.size() % 2 == 0;
        tracer().enabled = s.traced;
        alloc_counting().store(opt.trace && !s.traced);
        s.span_begin = tracer().size();
        const std::uint64_t events0 = w->events();
        const double ops0 = w->ops();
        const std::uint64_t allocs0 = allocations();
        const std::int64_t t0 = wall_ns();
        do {
            if (opt.break_trunk && units == 1) w->break_input();
            w->run_unit();
            if (++units == checkpoint) {
                const bool counting = alloc_counting().exchange(false);
                digest = take_digest(*w);
                alloc_counting().store(counting);
            }
            if (units == rss_checkpoint) rss_mb = peak_rss_mb();
        } while (wall_ns() - t0 < slice_ns);
        s.wall_s = seconds_between(t0, wall_ns());
        alloc_counting().store(false);
        tracer().enabled = false;
        s.span_end = tracer().size();
        s.events = w->events() - events0;
        s.ops = w->ops() - ops0;
        s.allocs = allocations() - allocs0;
        slices.push_back(s);
        if (wall_ns() - start >= budget_ns && units >= min_units &&
            slices.size() >= min_slices) {
            break;
        }
    }
    if (rss_checkpoint == 0) rss_mb = peak_rss_mb();
    const Snapshot after = snapshot(*w);
    const Workload::RunStats run_stats = w->run_stats();

    // --- checks -----------------------------------------------------------
    std::vector<std::string> failures;
    const Tally tally = w->tally();
    if (tally.failed != 0) {
        failures.push_back(std::to_string(tally.failed) + " of " +
                           std::to_string(tally.attempted) + " undelivered or wrong");
    }
    w->check(failures);

    // --- the cache-miss lookup path, timed on its own (traced runs) -----
    std::pair<std::size_t, std::size_t> fib_range{0, 0};
    double fib_lookup_ns = 0.0;
    if (opt.trace) {
        const FibProbe probe = w->fib_probe();
        std::uintptr_t sink = 0;
        for (const auto dst : probe.destinations) {
            sink += reinterpret_cast<std::uintptr_t>(probe.table->lookup(dst).get());
        }
        const std::size_t target = opt.tiny ? (1u << 14) : (1u << 21);
        const std::size_t passes = std::max<std::size_t>(1, target / probe.destinations.size());
        tracer().enabled = true;
        fib_range.first = tracer().size();
        const std::int64_t t0 = wall_ns();
        for (std::size_t pass = 0; pass < passes; ++pass) {
            Span span(SpanName::IpFibLookup);
            for (const auto dst : probe.destinations) {
                sink += reinterpret_cast<std::uintptr_t>(probe.table->lookup(dst).get());
            }
        }
        fib_lookup_ns = static_cast<double>(wall_ns() - t0) /
                        static_cast<double>(passes * probe.destinations.size());
        fib_range.second = tracer().size();
        tracer().enabled = false;
        if (sink == 0) failures.push_back("every routing-table probe missed");
    }

    // --- metrics ------------------------------------------------------------
    std::vector<double> untraced_rates;
    double untraced_ops = 0.0;
    double untraced_wall = 0.0;
    double untraced_allocs = 0.0;
    double traced_ops = 0.0;
    double traced_wall = 0.0;
    double traced_events = 0.0;
    std::vector<std::pair<std::size_t, std::size_t>> traced_ranges;
    for (const Slice& s : slices) {
        if (s.traced) {
            traced_ops += s.ops;
            traced_wall += s.wall_s;
            traced_events += static_cast<double>(s.events);
            traced_ranges.emplace_back(s.span_begin, s.span_end);
        } else {
            untraced_rates.push_back(ratio(s.ops, s.wall_s));
            untraced_ops += s.ops;
            untraced_wall += s.wall_s;
            untraced_allocs += static_cast<double>(s.allocs);
        }
    }
    const double ops = after.ops - before.ops;
    const double rate = ratio(untraced_ops, untraced_wall);
    const double fail_frac = ratio(static_cast<double>(tally.failed),
                                   static_cast<double>(tally.attempted));

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics.push_back({"setup_s", median(setup_s), "s"});
        metrics.push_back({"ops_per_s", rate, "op/s"});
        metrics.push_back({"peak_rss_MB", rss_mb, "MB"});
        metrics.push_back({"bytes_per_host", median(bytes_per_host), "B"});
    } else {
        auto count = [&](Counter c) {
            return static_cast<double>(after.counters.get(c) - before.counters.get(c));
        };
        auto spans = aggregate_spans(tracer().spans(), traced_ranges);
        auto fib = aggregate_spans(tracer().spans(), {fib_range});
        auto stats = [&](SpanName n) -> SpanStats& { return spans[static_cast<std::size_t>(n)]; };
        const double events = static_cast<double>(after.events - before.events);
        const double segs_out = count(Counter::TcpSegsOut);
        const double segs_in = count(Counter::TcpSegsIn);
        double ip_drops = 0.0;
        for (Counter c = Counter::IpDropChecksum; c <= Counter::IpDropReassemblyTimeout;
             c = static_cast<Counter>(static_cast<int>(c) + 1)) {
            ip_drops += count(c);
        }
        const double hits = count(Counter::IpRouteCacheHit);

        metrics.push_back({"core.build_s", median(build_s), "s"});
        metrics.push_back({"routing.static_s", median(routes_s), "s"});
        metrics.push_back({"core.inject_s", stats(SpanName::CoreInject).self_s, "s"});
        add_percentiles(metrics, "core.inject", stats(SpanName::CoreInject));
        metrics.push_back({"sim.run_s", stats(SpanName::SimRun).self_s, "s"});
        add_percentiles(metrics, "sim.run", stats(SpanName::SimRun));
        metrics.push_back({"sim.events_per_op", ratio(events, ops), "event/op"});
        metrics.push_back({"sim.ns_per_event",
                           ratio(stats(SpanName::SimRun).self_s * 1e9, traced_events), "ns"});
        metrics.push_back({"sim.pending_max", static_cast<double>(run_stats.pending_max),
                           "count"});
        metrics.push_back({"sim.shard.cpu_per_wall",
                           ratio(static_cast<double>(run_stats.cpu_ns),
                                 static_cast<double>(run_stats.wall_ns)),
                           "ratio"});
        metrics.push_back({"link.drops", static_cast<double>(after.link_drops - before.link_drops),
                           "count"});
        metrics.push_back({"ip.route_cache.hit_ratio",
                           ratio(hits, hits + count(Counter::IpRouteCacheMiss)), "ratio"});
        metrics.push_back({"ip.fib.lookup_ns", fib_lookup_ns, "ns"});
        add_percentiles(metrics, "ip.fib.lookup", fib[static_cast<std::size_t>(SpanName::IpFibLookup)]);
        metrics.push_back({"ip.drops", ip_drops, "count"});
        metrics.push_back({"tcp.send_s", stats(SpanName::TcpSend).self_s, "s"});
        add_percentiles(metrics, "tcp.send", stats(SpanName::TcpSend));
        metrics.push_back({"tcp.segs_per_op", ratio(segs_out, ops), "seg/op"});
        metrics.push_back({"tcp.retrans_ratio", ratio(count(Counter::TcpRetransSegs), segs_out),
                           "ratio"});
        metrics.push_back({"tcp.rtos_per_op", ratio(count(Counter::TcpRtos), ops), "1/op"});
        metrics.push_back({"tcp.gso.segs_per_build",
                           ratio(count(Counter::TcpGsoSegs), count(Counter::TcpGsoBuilds)),
                           "seg"});
        metrics.push_back({"tcp.gro.share", ratio(count(Counter::TcpGroSegs), segs_in), "ratio"});
        metrics.push_back({"tcp.pred.share",
                           ratio(count(Counter::TcpPredAcks) + count(Counter::TcpPredData),
                                 segs_in),
                           "ratio"});
        metrics.push_back({"app.on_data_s", stats(SpanName::AppOnData).self_s, "s"});
        add_percentiles(metrics, "app.on_data", stats(SpanName::AppOnData));
        metrics.push_back({"util.allocs_per_op", ratio(untraced_allocs, untraced_ops),
                           "alloc/op"});
        metrics.push_back({"trace.overhead", 1.0 - ratio(ratio(traced_ops, traced_wall), rate),
                           "ratio"});
        if (!opt.spans_path.empty()) write_spans(opt.spans_path);
    }

    // --- report -------------------------------------------------------------
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("catbench %s  seed=%llu seconds=%g trace=%d scale=%s shards=%zu nproc=%ld "
                "build=%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full", w->shards(), nproc,
                PERFBENCH_BUILD_TYPE);
    std::printf("  %-16s %.4f s (median of %d set-ups, %.4f to %.4f)\n", "setup_s",
                median(setup_s), reps, *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
    std::printf("  %-16s %.6g %s (%.6g %s in %.3f s of %zu%s slices; %d units in all)\n",
                w->rate_name(), rate, w->rate_unit(), untraced_ops, w->op_unit(), untraced_wall,
                untraced_rates.size(), opt.trace ? " untraced" : "", units);
    {
        std::vector<double> sorted = untraced_rates;
        std::sort(sorted.begin(), sorted.end());
        std::printf("  %-16s min %.6g  p25 %.6g  p50 %.6g  p75 %.6g  p90 %.6g  max %.6g\n",
                    "slice rates", sorted.front(), quantile(sorted, 25), quantile(sorted, 50),
                    quantile(sorted, 75), quantile(sorted, 90), sorted.back());
    }
    if (rss_checkpoint == 0) {
        std::printf("  %-16s %.1f MB at the end of the run\n", "peak_rss_MB", rss_mb);
    } else {
        std::printf("  %-16s %.1f MB after %d units (%.1f MB at the end)\n", "peak_rss_MB",
                    rss_mb, rss_checkpoint, peak_rss_mb());
    }
    std::printf("  %-16s %.1f B\n", "bytes_per_host", median(bytes_per_host));
    std::printf("  %-16s %.6g ratio (%llu of %llu)\n", "fail_frac", fail_frac,
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("  %-16s %s after %d units\n", "digest", digest.hex.c_str(), checkpoint);
    for (const std::string& f : failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
    if (opt.trace) {
        for (const Metric& m : metrics) {
            std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
    }

    std::string json = "{\"workload\":" + json_string(opt.workload) +
                       ",\"seed\":" + std::to_string(opt.seed) +
                       ",\"seconds\":" + json_number(opt.seconds) +
                       ",\"trace\":" + (opt.trace ? "1" : "0") +
                       ",\"scale\":" + json_string(opt.tiny ? "tiny" : "full") +
                       ",\"shards\":" + std::to_string(w->shards()) +
                       ",\"nproc\":" + std::to_string(nproc) +
                       ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                       ",\"units\":" + std::to_string(units) +
                       ",\"correct\":" + (failures.empty() ? "true" : "false") +
                       ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        json += (i ? "," : "") + json_string(failures[i]);
    }
    json += "],\"attempted\":" + std::to_string(tally.attempted) +
            ",\"failed\":" + std::to_string(tally.failed) +
            ",\"fail_frac\":" + json_number(fail_frac) +
            ",\"rate\":{\"name\":" + json_string(w->rate_name()) +
            ",\"value\":" + json_number(rate) +
            ",\"unit\":" + json_string(w->rate_unit()) + "}" +
            ",\"digest\":" + json_string(digest.hex) + ",\"digest_fields\":{";
    for (std::size_t i = 0; i < digest.fields.size(); ++i) {
        json += (i ? "," : "") + json_string(digest.fields[i].first) + ":" +
                json_string(digest.fields[i].second);
    }
    json += "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? "," : "") + json_string(metrics[i].name) + ":{\"value\":" +
                json_number(metrics[i].value) + ",\"unit\":" + json_string(metrics[i].unit) +
                "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    const perfbench::Options opt = perfbench::parse(argc, argv);
    try {
        return perfbench::run(opt);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "catbench: %s\n", e.what());
        return 3;
    }
}
