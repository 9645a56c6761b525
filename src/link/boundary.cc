#include "link/boundary.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "link/transmitter.h"
#include "util/buffer_pool.h"

namespace catenet::link {

namespace {
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max();
}  // namespace

// One direction's handoff. The producer appends to the outbox on the
// source shard's thread while a window runs (or between run_until calls);
// the consumer empties it only between windows, on the destination
// shard's. The driver's barriers order the two, so the outbox is the whole
// interface and needs no atomics.
class BoundaryLink::Channel final : public sim::BoundaryChannel {
public:
    Channel(std::uint32_t src_shard, std::uint32_t dst_shard, std::int64_t lookahead_ns,
            util::BufferPool& src_pool, util::BufferPool& dst_pool)
        : src_shard_(src_shard),
          dst_shard_(dst_shard),
          lookahead_ns_(lookahead_ns),
          src_pool_(src_pool),
          dst_pool_(dst_pool) {}

    void set_dest_port(Port* port) noexcept { dst_port_ = port; }

    std::uint32_t source_shard() const noexcept override { return src_shard_; }
    std::uint32_t dest_shard() const noexcept override { return dst_shard_; }
    std::int64_t lookahead_ns() const noexcept override { return lookahead_ns_; }

    // --- producer side -------------------------------------------------
    /// Accepts a transmitted datagram into the next outbox slot. The slot
    /// still holds the buffer the consumer left there when it staged the
    /// slot's previous frame; recycling it into the source pool makes
    /// buffer capacity flow against the stream.
    void submit(std::int64_t send_ns, std::int64_t deliver_ns, Packet&& packet) {
        if (sent_ == outbox_.size()) outbox_.emplace_back();
        Frame& f = outbox_[sent_++];
        src_pool_.recycle(std::move(f.bytes));
        f.deliver_ns = std::max(deliver_ns, send_ns + lookahead_ns_);
        f.seq = next_seq_++;
        f.uid = packet.uid;
        f.created_ns = packet.created.nanos();
        f.send_ns = send_ns;
        f.csum_ok = packet.csum_ok;
        f.bytes = std::move(packet.bytes);
    }

    // --- consumer side -------------------------------------------------
    void stage() override {
        for (std::size_t i = 0; i < sent_; ++i) {
            staged_.push_back(std::move(outbox_[i]));
            std::push_heap(staged_.begin(), staged_.end(), later_);
            // Any retired buffer will do: its capacity is headed for the
            // source shard's pool. An empty one just means the pool was dry.
            outbox_[i].bytes = dst_pool_.take_any();
        }
        sent_ = 0;
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
    std::uint64_t next_seq_ = 0;

    // Consumer-owned.
    util::BufferPool& dst_pool_;
    Port* dst_port_ = nullptr;
    std::vector<Frame> staged_;  ///< binary min-heap by (deliver_ns, seq)

    // Filled by the producer, emptied by the consumer between windows.
    // Slots past sent_ keep the consumer's retired buffers.
    std::vector<Frame> outbox_;
    std::size_t sent_ = 0;
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
    ab_ = std::make_unique<Channel>(shard_a, shard_b, a_to_b.lookahead().nanos(),
                                    sim_a.buffer_pool(), sim_b.buffer_pool());
    ba_ = std::make_unique<Channel>(shard_b, shard_a, b_to_a.lookahead().nanos(),
                                    sim_b.buffer_pool(), sim_a.buffer_pool());
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
