// Host-load readings for benchmark records. The box is a VM shared with
// other tenants, so a record says how much of its wall time was someone
// else's: CPU steal (the 8th number on /proc/stat's "cpu" line) over the
// measurement, and the load average at its end. bench_scale writes them
// per soak; bench_engine and bench_parallel write them into their JSON
// context through run_benchmarks_recording_host_load (host_load_main.h).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace catenet::bench {

/// Machine-wide CPU time from /proc/stat's "cpu" line, in clock ticks:
/// the steal column and the sum of all columns. Zeros where unreadable.
struct CpuTicks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

inline CpuTicks cpu_ticks() {
    CpuTicks t;
    if (FILE* f = std::fopen("/proc/stat", "r")) {
        unsigned long long v[8] = {};
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                        &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
            for (const unsigned long long x : v) t.total += x;
            t.steal = v[7];
        }
        std::fclose(f);
    }
    return t;
}

/// Steal's share of all CPU time between two readings, in percent.
inline double steal_pct(const CpuTicks& before, const CpuTicks& after) {
    const std::uint64_t total = after.total - before.total;
    return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                           static_cast<double>(total)
                     : 0.0;
}

/// /proc/loadavg's 1-, 5- and 15-minute load averages, as "0.52 0.61 0.70";
/// empty where unreadable.
inline std::string load_average() {
    std::string out;
    if (FILE* f = std::fopen("/proc/loadavg", "r")) {
        double one = 0, five = 0, fifteen = 0;
        if (std::fscanf(f, "%lf %lf %lf", &one, &five, &fifteen) == 3) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.2f %.2f %.2f", one, five, fifteen);
            out = buf;
        }
        std::fclose(f);
    }
    return out;
}

}  // namespace catenet::bench
