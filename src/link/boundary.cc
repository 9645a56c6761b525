#include "link/boundary.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "link/queue.h"
#include "util/buffer_pool.h"
#include "util/spsc_ring.h"

namespace catenet::link {

namespace {
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max();

std::int64_t lookahead_of(const LinkParams& params) {
    // The hard minimum between a send and its delivery: propagation plus
    // clocking one byte. transmission_time's integer ceiling guarantees
    // >= 1ns at any rate, so lookahead is always strictly positive — the
    // conservative engine's liveness condition.
    return params.propagation_delay.nanos() + params.transmission_time(1).nanos();
}
}  // namespace

// One direction's synchronization state. Producer fields are touched only
// by the source shard's thread, consumer fields only by the destination
// shard's; the SPSC ring and the horizon atomic are the entire interface
// between them.
class BoundaryLink::Channel final : public sim::BoundaryChannel {
public:
    Channel(std::uint32_t src_shard, std::uint32_t dst_shard, std::int64_t lookahead_ns,
            util::BufferPool& src_pool, util::BufferPool& dst_pool,
            std::size_t prewarm_bytes)
        : src_shard_(src_shard),
          dst_shard_(dst_shard),
          lookahead_ns_(lookahead_ns),
          src_pool_(src_pool),
          dst_pool_(dst_pool),
          ring_(1024) {
        // Spin one idle lap at construction, leaving an MTU-sized carcass
        // in every slot. The swap-backwards capacity flow otherwise only
        // begins once the ring wraps: until then each producer harvest is
        // the slot's default-constructed (capacity-zero) buffer, and every
        // send re-allocates — a full lap of heap traffic before the path
        // actually goes allocation-free.
        for (std::size_t i = 0; i < ring_.capacity(); ++i) {
            Frame in;
            ring_.push(in);
            Frame out;
            out.bytes.reserve(prewarm_bytes);
            ring_.pop(out);
        }
    }

    void set_dest_port(Port* port) noexcept { dst_port_ = port; }

    std::uint32_t source_shard() const noexcept override { return src_shard_; }
    std::uint32_t dest_shard() const noexcept override { return dst_shard_; }
    std::int64_t lookahead_ns() const noexcept { return lookahead_ns_; }
    const ChannelStats& channel_stats() const noexcept { return channel_stats_; }
    void count_loss() noexcept { ++channel_stats_.packets_lost; }
    void count_corruption() noexcept { ++channel_stats_.packets_corrupted; }

    // --- producer side -------------------------------------------------
    /// Accepts a transmitted datagram. FIFO into the ring (behind any
    /// backlogged frames); the swap-push leaves the slot's previous
    /// occupant — a buffer the consumer retired — in frame.bytes, which is
    /// recycled into the source pool: capacity flows against the stream.
    void submit(std::int64_t send_ns, std::int64_t deliver_ns, Packet&& packet) {
        Frame f;
        f.deliver_ns = std::max(deliver_ns, send_ns + lookahead_ns_);
        f.seq = next_seq_++;
        f.uid = packet.uid;
        f.created_ns = packet.created.nanos();
        f.send_ns = send_ns;
        f.csum_ok = packet.csum_ok;
        f.bytes = std::move(packet.bytes);
        if (pending_head_ == pending_.size() && ring_.push(f)) {
            src_pool_.recycle(std::move(f.bytes));
            return;
        }
        pending_.push_back(std::move(f));
    }

    void flush(std::int64_t horizon_ns) override {
        while (pending_head_ < pending_.size()) {
            Frame& f = pending_[pending_head_];
            if (!ring_.push(f)) break;
            src_pool_.recycle(std::move(f.bytes));
            ++pending_head_;
        }
        if (pending_head_ == pending_.size()) {
            pending_.clear();
            pending_head_ = 0;
        } else if (pending_head_ > 32 && pending_head_ * 2 >= pending_.size()) {
            pending_.erase(pending_.begin(),
                           pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
            pending_head_ = 0;
        }
        // Under backpressure the promise must shrink to just before the
        // first send still waiting for ring space (that send has already
        // happened, so "all sends <= h are in the ring" would otherwise be
        // false). Monotone: sends arrive in time order and the previous
        // publication was below this send's time.
        std::int64_t h = horizon_ns;
        if (pending_head_ < pending_.size()) {
            h = std::min(h, pending_[pending_head_].send_ns - 1);
        }
        if (h > horizon_.load(std::memory_order_relaxed)) {
            horizon_.store(h, std::memory_order_release);
        }
    }

    bool fully_flushed() const noexcept override {
        return pending_head_ == pending_.size();
    }

    // --- consumer side -------------------------------------------------
    std::int64_t safe_ns() override {
        return horizon_.load(std::memory_order_acquire) + lookahead_ns_;
    }

    void stage() override {
        while (!ring_.empty()) {
            Frame f;
            // Deposit a retired buffer into the slot as we take the packet
            // out; an empty deposit just means the pool was dry.
            f.bytes = dst_pool_.take_any();
            ring_.pop(f);
            staged_.push_back(std::move(f));
            std::push_heap(staged_.begin(), staged_.end(), later_);
        }
    }

    bool peek(std::int64_t& deliver_ns, std::uint64_t& seq) const override {
        if (staged_.empty()) return false;
        deliver_ns = staged_.front().deliver_ns;
        seq = staged_.front().seq;
        return true;
    }

    std::int64_t staged_head_ns() const override {
        return staged_.empty() ? kInfNs : staged_.front().deliver_ns;
    }

    void deliver_head() override;  // needs Port's definition

private:
    struct Frame {
        std::int64_t deliver_ns = 0;
        std::uint64_t seq = 0;
        std::uint64_t uid = 0;
        std::int64_t created_ns = 0;
        std::int64_t send_ns = 0;
        bool csum_ok = false;  ///< Packet::csum_ok, carried across the boundary
        util::ByteBuffer bytes;
    };
    // Min-heap order for std::push_heap/pop_heap (which build max-heaps):
    // "later" frames sink. seq breaks equal-time ties FIFO.
    static bool later(const Frame& a, const Frame& b) noexcept {
        if (a.deliver_ns != b.deliver_ns) return a.deliver_ns > b.deliver_ns;
        return a.seq > b.seq;
    }
    static constexpr auto later_ = &Channel::later;

    const std::uint32_t src_shard_;
    const std::uint32_t dst_shard_;
    const std::int64_t lookahead_ns_;

    // Producer-owned.
    util::BufferPool& src_pool_;
    std::vector<Frame> pending_;  ///< sends awaiting ring space, FIFO from pending_head_
    std::size_t pending_head_ = 0;
    std::uint64_t next_seq_ = 0;
    ChannelStats channel_stats_;

    // Consumer-owned.
    util::BufferPool& dst_pool_;
    Port* dst_port_ = nullptr;
    std::vector<Frame> staged_;  ///< binary min-heap by (deliver_ns, seq)

    // Shared.
    util::SpscRing<Frame> ring_;
    std::atomic<std::int64_t> horizon_{-1};
};

// The transmitter: the same state machine as PointToPointLink's Port —
// idle-wire queue bypass, busy-until accounting, a wake-up event only when
// a backlog exists, memoized serialization delay — ending in a channel
// submit instead of a locally scheduled delivery.
class BoundaryLink::Port final : public NetIf {
public:
    Port(sim::Simulator& sim, Channel& out, LinkParams params, util::Rng rng,
         std::string name)
        : sim_(sim),
          out_(out),
          params_(params),
          rng_(std::move(rng)),
          name_(std::move(name)),
          queue_(std::make_unique<DropTailQueue>(params.queue_capacity_packets)) {}

    std::size_t mtu() const noexcept override { return params_.mtu; }
    const std::string& name() const noexcept override { return name_; }

    void send(Packet packet, util::Ipv4Address /*next_hop*/) override {
        if (!up_) {
            ++stats_.send_failures;
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        const sim::Time now = sim_.now();
        packet.enqueued = now;
        if (now >= busy_until_ && queue_->empty()) {
            transmit(std::move(packet));
            return;
        }
        if (!queue_->enqueue(std::move(packet))) {
            notify_drop(packet);
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        if (now >= busy_until_) {
            start_transmission();
        } else if (!kick_scheduled_) {
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    /// Carrier changes must happen while the owning shard is quiescent
    /// (between ParallelSimulator::run_until calls): the flag is read by
    /// this shard's thread on every send.
    void set_up(bool up) override {
        NetIf::set_up(up);
        if (!up) queue_->clear();
    }

    void receive_from_boundary(Packet&& packet) { deliver(std::move(packet)); }

private:
    sim::Time transmission_time(std::size_t bytes) {
        if (bytes != tx_memo_bytes_) {
            tx_memo_bytes_ = bytes;
            tx_memo_ = params_.transmission_time(bytes);
        }
        return tx_memo_;
    }

    void transmit(Packet packet) {
        const auto tx = transmission_time(packet.size());
        const sim::Time now = sim_.now();
        busy_until_ = now + tx;
        ++stats_.packets_sent;
        stats_.bytes_sent += packet.size();
        if (rng_.chance(params_.drop_probability)) {
            out_.count_loss();
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        maybe_corrupt(packet);
        sim::Time delay = tx + params_.propagation_delay;
        if (params_.jitter > sim::Time(0)) {
            delay += sim::Time(static_cast<std::int64_t>(
                rng_.uniform(0, static_cast<std::uint64_t>(params_.jitter.nanos()))));
        }
        out_.submit(now.nanos(), (now + delay).nanos(), std::move(packet));
    }

    void start_transmission() {
        auto next = queue_->dequeue();
        if (!next) return;
        transmit(std::move(*next));
        if (!queue_->empty() && !kick_scheduled_) {
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - sim_.now(), [this] { kick(); });
        }
    }

    void kick() {
        kick_scheduled_ = false;
        const sim::Time now = sim_.now();
        if (now >= busy_until_) {
            start_transmission();
        } else if (!queue_->empty()) {
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    void maybe_corrupt(Packet& packet) {
        if (params_.bit_error_rate <= 0.0 || packet.bytes.empty()) return;
        const double bits = static_cast<double>(packet.size()) * 8.0;
        const double p_hit = 1.0 - std::pow(1.0 - params_.bit_error_rate, bits);
        if (!rng_.chance(p_hit)) return;
        out_.count_corruption();
        // Flipped bits invalidate any encoder-computed checksum.
        packet.csum_ok = false;
        const auto flips = rng_.uniform(1, 3);
        for (std::uint64_t i = 0; i < flips; ++i) {
            const auto bit = rng_.uniform(0, packet.size() * 8 - 1);
            packet.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }

    sim::Simulator& sim_;
    Channel& out_;
    LinkParams params_;
    util::Rng rng_;
    std::string name_;
    std::unique_ptr<PacketQueue> queue_;
    sim::Time busy_until_;
    bool kick_scheduled_ = false;
    std::size_t tx_memo_bytes_ = SIZE_MAX;
    sim::Time tx_memo_;
};

void BoundaryLink::Channel::deliver_head() {
    std::pop_heap(staged_.begin(), staged_.end(), later_);
    Frame f = std::move(staged_.back());
    staged_.pop_back();
    Packet p;
    p.bytes = std::move(f.bytes);
    p.uid = f.uid;
    p.created = sim::Time(f.created_ns);
    p.enqueued = sim::Time(f.send_ns);
    p.csum_ok = f.csum_ok;
    dst_port_->receive_from_boundary(std::move(p));
}

BoundaryLink::BoundaryLink(sim::Simulator& sim_a, std::uint32_t shard_a,
                           sim::Simulator& sim_b, std::uint32_t shard_b,
                           util::Rng& parent_rng, const LinkParams& params,
                           std::string name)
    : BoundaryLink(sim_a, shard_a, sim_b, shard_b, parent_rng, params, params,
                   std::move(name)) {}

BoundaryLink::BoundaryLink(sim::Simulator& sim_a, std::uint32_t shard_a,
                           sim::Simulator& sim_b, std::uint32_t shard_b,
                           util::Rng& parent_rng, const LinkParams& a_to_b,
                           const LinkParams& b_to_a, std::string name) {
    a_to_b.validate();
    b_to_a.validate();
    util::Rng link_rng = parent_rng.fork();  // one fork, same as PointToPointLink
    ab_ = std::make_unique<Channel>(shard_a, shard_b, lookahead_of(a_to_b),
                                    sim_a.buffer_pool(), sim_b.buffer_pool(),
                                    a_to_b.mtu);
    ba_ = std::make_unique<Channel>(shard_b, shard_a, lookahead_of(b_to_a),
                                    sim_b.buffer_pool(), sim_a.buffer_pool(),
                                    b_to_a.mtu);
    a_ = std::make_unique<Port>(sim_a, *ab_, a_to_b, link_rng.fork(), name + ":a");
    b_ = std::make_unique<Port>(sim_b, *ba_, b_to_a, link_rng.fork(), name + ":b");
    ab_->set_dest_port(b_.get());
    ba_->set_dest_port(a_.get());
}

BoundaryLink::~BoundaryLink() = default;

NetIf& BoundaryLink::port_a() noexcept { return *a_; }
NetIf& BoundaryLink::port_b() noexcept { return *b_; }
sim::BoundaryChannel& BoundaryLink::channel_a_to_b() noexcept { return *ab_; }
sim::BoundaryChannel& BoundaryLink::channel_b_to_a() noexcept { return *ba_; }
const ChannelStats& BoundaryLink::stats_a_to_b() const noexcept {
    return ab_->channel_stats();
}
const ChannelStats& BoundaryLink::stats_b_to_a() const noexcept {
    return ba_->channel_stats();
}
std::uint64_t BoundaryLink::total_bytes_sent() const noexcept {
    return a_->stats().bytes_sent + b_->stats().bytes_sent;
}

}  // namespace catenet::link
