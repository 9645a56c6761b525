#include "sim/parallel.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>

namespace catenet::sim {

namespace {
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max();
constexpr int kYieldsBeforeBlocking = 1000;

std::size_t worker_count(std::size_t shards, std::size_t threads) {
    if (shards == 0) throw std::invalid_argument("ParallelSimulator: zero shards");
    return threads == 0 ? shards : std::min(threads, shards);
}
}  // namespace

ParallelSimulator::ParallelSimulator(std::size_t shards, std::size_t threads)
    : workers_(worker_count(shards, threads)),
      lookahead_ns_(kInfNs),
      lows_(workers_, kInfNs),
      barrier_(workers_) {
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<ShardState>());
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::Barrier::arrive_and_wait() {
    // The phase is read before arriving: the last arrival moves it on, and
    // no worker can arrive for the next phase until this one ends. The
    // acq_rel arrivals and the release of the new phase order every
    // worker's writes before the barrier ahead of every read after it.
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers_) {
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        phase_.notify_all();
        return;
    }
    for (int i = 0; i < kYieldsBeforeBlocking; ++i) {
        if (phase_.load(std::memory_order_acquire) != phase) return;
        std::this_thread::yield();
    }
    phase_.wait(phase, std::memory_order_acquire);
}

std::uint32_t ParallelSimulator::register_channel(BoundaryChannel* channel) {
    // `in` stays ordered by id because registration appends.
    shards_.at(channel->dest_shard())->in.push_back(channel);
    lookahead_ns_ = std::min(lookahead_ns_, channel->lookahead_ns());
    return channels_++;
}

std::uint64_t ParallelSimulator::events_processed() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->sim.events_processed();
    return total;
}

void ParallelSimulator::run_window(ShardState& s, std::int64_t end_ns) {
    // Deliver every staged arrival due in the window in canonical (time,
    // channel id, seq) order, interleaved with local events via invoke_at.
    // `heads` holds each non-empty in-channel's head keyed (time, index
    // into `in`), and `in` is ordered by channel id, so the heap's minimum
    // is the scan's answer; seq order within a channel is the channel's
    // own. A delivery changes only its own channel's head: nothing sent
    // during the window can join the heads, it arrives after end_ns.
    std::vector<Head>& heads = s.heads;
    while (!heads.empty() && heads.front().first <= end_ns) {
        std::pop_heap(heads.begin(), heads.end(), std::greater<>{});
        const auto [t, i] = heads.back();
        BoundaryChannel* ch = s.in[i];
        s.sim.invoke_at(Time(t), [ch] { ch->deliver_head(); });
        const std::int64_t next = ch->staged_head_ns();
        if (next == kInfNs) {
            heads.pop_back();
        } else {
            heads.back().first = next;
            std::push_heap(heads.begin(), heads.end(), std::greater<>{});
        }
    }
    s.sim.run_until(Time(end_ns));
}

void ParallelSimulator::worker(std::size_t k, std::int64_t deadline_ns) {
    for (;;) {
        // Stage what the last window sent, heap each shard's in-channel
        // heads, and offer this worker's lower bound on everything its
        // shards have yet to run. The barrier before this point (or the
        // thread start) orders every producer's appends before these reads.
        std::int64_t low = kInfNs;
        for (std::size_t i = k; i < shards_.size(); i += workers_) {
            ShardState& s = *shards_[i];
            low = std::min(low, s.sim.next_event_ns(deadline_ns));
            s.heads.clear();
            for (std::uint32_t c = 0; c < s.in.size(); ++c) {
                s.in[c]->stage();
                const std::int64_t head = s.in[c]->staged_head_ns();
                if (head != kInfNs) s.heads.emplace_back(head, c);
            }
            std::make_heap(s.heads.begin(), s.heads.end(), std::greater<>{});
            if (!s.heads.empty()) low = std::min(low, s.heads.front().first);
        }
        lows_[k] = low;
        barrier_.arrive_and_wait();
        // Every worker reduces the same values to the same gvt, so all take
        // the same branch. The next writes to lows_ follow the barrier that
        // closes this window.
        const std::int64_t gvt = *std::min_element(lows_.begin(), lows_.end());
        if (gvt > deadline_ns) {
            for (std::size_t i = k; i < shards_.size(); i += workers_) {
                shards_[i]->sim.run_until(Time(deadline_ns));
            }
            return;
        }
        // Anything sent from now on is sent at or after gvt and so arrives
        // at or after gvt + L: the window may run to gvt + L - 1.
        const std::int64_t end_ns = gvt + std::min(lookahead_ns_ - 1, deadline_ns - gvt);
        if (k == 0) ++windows_;
        for (std::size_t i = k; i < shards_.size(); i += workers_) {
            run_window(*shards_[i], end_ns);
        }
        barrier_.arrive_and_wait();
    }
}

void ParallelSimulator::run_until(Time deadline) {
    if (deadline < now_) return;
    const std::int64_t deadline_ns = deadline.nanos();
    // Worker 0 is the caller's thread; cooperative mode spawns nothing.
    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    for (std::size_t k = 1; k < workers_; ++k) {
        pool.emplace_back([this, k, deadline_ns] { worker(k, deadline_ns); });
    }
    worker(0, deadline_ns);
    for (auto& t : pool) t.join();
    now_ = deadline;
}

}  // namespace catenet::sim
