#include "link/boundary.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "link/transmitter.h"
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

    // Consumer-owned.
    util::BufferPool& dst_pool_;
    Port* dst_port_ = nullptr;
    std::vector<Frame> staged_;  ///< binary min-heap by (deliver_ns, seq)

    // Shared.
    util::SpscRing<Frame> ring_;
    std::atomic<std::int64_t> horizon_{-1};
};

namespace {
// Owns a boundary port's channel-draw Rng. A base, not a member, so it is
// built before the Transmitter base that holds a reference to it.
struct PortRng {
    util::Rng rng;
};
}  // namespace

// The shared transmitter, handing each transmitted packet to the channel
// instead of scheduling its delivery locally.
class BoundaryLink::Port final : private PortRng, public Transmitter<Port> {
public:
    Port(sim::Simulator& sim, Channel& out, const LinkParams& params, util::Rng rng,
         std::string name)
        : PortRng{std::move(rng)},
          Transmitter(sim, PortRng::rng, params, std::move(name)),
          out_(out) {}

    void receive_from_boundary(Packet&& packet) { deliver(std::move(packet)); }

private:
    friend class Transmitter<Port>;

    /// The interface's own up flag is the whole carrier. Carrier changes
    /// must happen while the owning shard is quiescent (between
    /// ParallelSimulator::run_until calls): the flag is read by this
    /// shard's thread on every send.
    static constexpr bool carrier() noexcept { return true; }

    void propagate(Packet&& packet, sim::Time delay) {
        const sim::Time now = sim_.now();
        out_.submit(now.nanos(), (now + delay).nanos(), std::move(packet));
    }

    Channel& out_;
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
    return a_->channel_stats();
}
const ChannelStats& BoundaryLink::stats_b_to_a() const noexcept {
    return b_->channel_stats();
}
PacketQueue& BoundaryLink::queue_a() noexcept { return a_->queue(); }
PacketQueue& BoundaryLink::queue_b() noexcept { return b_->queue(); }
std::uint64_t BoundaryLink::total_bytes_sent() const noexcept {
    return a_->stats().bytes_sent + b_->stats().bytes_sent;
}

}  // namespace catenet::link
