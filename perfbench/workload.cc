#include "workload.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using namespace catenet;

Workload::Workload(std::uint64_t seed, std::size_t shards) {
    if (shards > 1) {
        psim_ = std::make_unique<sim::ParallelSimulator>(shards, /*threads=*/0);
        net_ = std::make_unique<core::Internetwork>(seed, *psim_);
    } else {
        net_ = std::make_unique<core::Internetwork>(seed);
    }
}

void Workload::break_input() {
    throw std::invalid_argument("this workload has no trunk-cut mode");
}

std::uint64_t Workload::events() const {
    return psim_ ? psim_->events_processed() : net_->sim().events_processed();
}

std::size_t Workload::pending() const {
    if (!psim_) return net_->sim().pending_events();
    std::size_t total = 0;
    for (std::size_t i = 0; i < psim_->shard_count(); ++i) {
        total += psim_->shard(i).pending_events();
    }
    return total;
}

void Workload::advance(sim::Time duration) {
    const bool timing = tracer().enabled;
    const std::int64_t wall0 = timing ? wall_ns() : 0;
    const std::int64_t cpu0 = timing ? cpu_ns() : 0;
    {
        Span span(SpanName::SimRun);
        net_->run_for(duration);
    }
    if (timing) {
        run_stats_.wall_ns += wall_ns() - wall0;
        run_stats_.cpu_ns += cpu_ns() - cpu0;
    }
    run_stats_.pending_max = std::max(run_stats_.pending_max, pending());
}

}  // namespace perfbench
