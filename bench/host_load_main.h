// A google-benchmark main whose JSON file (--benchmark_out) records the
// host's load in its context: "cpu_steal_pct" over the whole run and
// "load_average" at its end (host_load.h). The context is the first thing
// in the file, so the file reporter holds everything back until the run
// has finished; the console output is unchanged.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "host_load.h"

namespace catenet::bench {

class HostLoadJsonReporter final : public benchmark::BenchmarkReporter {
public:
    bool ReportContext(const Context& context) override {
        context_.emplace(context);
        before_ = cpu_ticks();
        return true;
    }
    void ReportRuns(const std::vector<Run>& runs) override { runs_.push_back(runs); }
    void Finalize() override {
        char steal[32];
        std::snprintf(steal, sizeof(steal), "%.1f", steal_pct(before_, cpu_ticks()));
        benchmark::AddCustomContext("cpu_steal_pct", steal);
        benchmark::AddCustomContext("load_average", load_average());
        json_.SetOutputStream(&GetOutputStream());
        json_.SetErrorStream(&GetErrorStream());
        json_.ReportContext(*context_);
        for (const auto& runs : runs_) json_.ReportRuns(runs);
        json_.Finalize();
    }

private:
    benchmark::JSONReporter json_;
    std::optional<Context> context_;
    std::vector<std::vector<Run>> runs_;
    CpuTicks before_;
};

inline int run_benchmarks_recording_host_load(int argc, char** argv) {
    bool to_file = false;
    for (int i = 1; i < argc; ++i) {
        to_file = to_file || std::string_view(argv[i]).starts_with("--benchmark_out=");
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    HostLoadJsonReporter file_reporter;
    benchmark::RunSpecifiedBenchmarks(nullptr, to_file ? &file_reporter : nullptr);
    benchmark::Shutdown();
    return 0;
}

}  // namespace catenet::bench
