#include "link/point_to_point.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "link/lan.h"
#include "util/buffer_pool.h"

namespace catenet::link {

namespace {
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max();
}  // namespace

// One direction's hand-off on a cut link. The producer appends to the
// outbox on the source shard's thread while a window runs (or between
// run_until calls); the consumer empties it only between windows, on the
// destination shard's. ParallelSimulator's barriers order the two, so
// the outbox is the whole interface and needs no atomics. Buffer
// capacity flows back against the packet stream: staging leaves a
// retired destination-pool buffer in each outbox slot, and the producer
// recycles it into the source pool when it reuses the slot, keeping a
// one-way flow allocation-free in steady state on both shards.
class PointToPointLink::Channel final : public sim::BoundaryChannel {
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

// One direction of the duplex link (DESIGN.md §10): an egress queue, a
// busy-until wire with an idle-wire bypass, a wake-up event only when a
// backlog exists, a memoized serialization delay, and the channel model's
// loss, corruption and jitter draws from the direction's own stream. A
// transmission ends in one hand-off: a delivery event on this port's
// engine, or, on a cut link, the direction's outbox.
class PointToPointLink::Port final : public NetIf {
public:
    Port(PointToPointLink& link, sim::Simulator& sim, util::Rng rng,
         const LinkParams& params, std::string name)
        : link_(link),
          sim_(sim),
          rng_(rng),
          params_(params),
          name_(std::move(name)),
          queue_(std::make_unique<DropTailQueue>(params.queue_capacity_packets)) {}
    // Scheduled kicks and deliveries hold `this`.
    Port(const Port&) = delete;
    Port& operator=(const Port&) = delete;

    /// `out` is this direction's outbox on a cut link, null on one shard.
    void set_peer(Port& peer, Channel* out) noexcept {
        peer_ = &peer;
        out_ = out;
        if (out != nullptr) out->set_dest_port(&peer);
    }

    std::size_t mtu() const noexcept override { return params_.mtu; }
    const std::string& name() const noexcept override { return name_; }

    void send(Packet packet, util::Ipv4Address /*next_hop*/) override {
        if (!up_ || !link_.up_) {
            ++stats_.send_failures;
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        const sim::Time now = sim_.now();
        if (now >= busy_until_ && queue_->empty()) {
            // Idle wire, no backlog: any discipline would hand this exact
            // packet straight back, so it skips the queue entirely.
            transmit(std::move(packet));
            return;
        }
        // PacketQueue contract: on rejection the argument is untouched, so
        // the drop observer can still inspect it.
        if (!queue_->enqueue(std::move(packet))) {
            notify_drop(packet);
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        if (now >= busy_until_) {
            start_transmission();
        } else if (!kick_scheduled_) {
            // The wire is mid-serialization; wake up exactly when it frees.
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - now, Kick{this});
        }
    }

    /// A dead transceiver loses its queued packets: the queue counts them
    /// as flushed and their buffers return to this port's pool. Packets
    /// already on the wire keep propagating and face the link's state at
    /// arrival.
    void set_up(bool up) override {
        NetIf::set_up(up);
        if (!up) queue_->flush(sim_.buffer_pool());
    }

    /// A packet the peer transmitted reaches this end, on this port's
    /// shard: it goes up the stack, or, when the link failed while it was
    /// in flight or this end is down, is lost on the wire as the peer's
    /// direction's loss and its buffer returns to this shard's pool.
    void arrive(Packet&& packet) {
        if (link_.up_ && deliver(std::move(packet))) return;
        peer_->count_loss();
        sim_.buffer_pool().recycle(std::move(packet.bytes));
    }

    /// Replaces the egress queue; must be called while it is empty.
    void set_queue(std::unique_ptr<PacketQueue> q) { queue_ = std::move(q); }
    PacketQueue& queue() noexcept { return *queue_; }
    const ChannelStats& channel_stats() const noexcept { return channel_stats_; }

private:
    // The two events a port schedules. Each prefetch() touches one line of
    // what the event will read first (the engine calls it one event ahead;
    // see InlineCallback): an arrival's receiving port and the datagram's
    // header, which the previous hop wrote on another node, and a kick's
    // port. One port line measured better than four.
    struct Arrival {
        Port* peer;
        Packet packet;
        void operator()() { peer->arrive(std::move(packet)); }
        void prefetch() const noexcept {
            __builtin_prefetch(peer);
            __builtin_prefetch(packet.bytes.data());
        }
    };
    struct Kick {
        Port* port;
        void operator()() const { port->kick(); }
        void prefetch() const noexcept { __builtin_prefetch(port); }
    };

    // Clocks the head-of-queue packet onto the wire. The serialization and
    // propagation phases collapse into ONE hand-off: channel outcomes
    // (loss, corruption, jitter) are drawn at transmission start and the
    // packet arrives at now + tx + propagation. A separate wake-up
    // ("kick") at busy_until_ is scheduled only when a backlog actually
    // exists, so the uncongested fast path costs a single event per hop.
    void start_transmission() {
        auto next = queue_->dequeue();
        if (!next) return;
        transmit(std::move(*next));
        if (!queue_->empty() && !kick_scheduled_) {
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - sim_.now(), Kick{this});
        }
    }

    // One-entry memo over LinkParams::transmission_time. A port in steady
    // state clocks a stream of same-sized packets (full segments one way,
    // bare ACKs the other), and the 64-bit ceiling division is the single
    // most expensive instruction left in the per-hop path; the memo turns
    // it into a compare. A size change is just one recomputation.
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
        stats_.busy_ns += static_cast<std::uint64_t>(tx.nanos());
        if (rng_.chance(params_.drop_probability)) {
            count_loss();
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        maybe_corrupt(packet);
        sim::Time delay = tx + params_.propagation_delay;
        if (params_.jitter > sim::Time(0)) {
            delay += sim::Time(static_cast<std::int64_t>(
                rng_.uniform(0, static_cast<std::uint64_t>(params_.jitter.nanos()))));
        }
        if (out_ != nullptr) {
            out_->submit(now.nanos(), (now + delay).nanos(), std::move(packet));
            return;
        }
        // The packet rides inside the event slot itself (InlineCallback's
        // capture budget covers a pointer + Packet), so any number of
        // packets can be concurrently propagating without heap traffic.
        sim_.schedule_after(delay, Arrival{peer_, std::move(packet)});
    }

    // One more packet lost in this direction. On a cut link this port's
    // shard (a drop draw) and the far shard (an arrival at a down end) may
    // both count in one window, hence the relaxed atomic add.
    void count_loss() noexcept {
        std::atomic_ref<std::uint64_t>(channel_stats_.packets_lost)
            .fetch_add(1, std::memory_order_relaxed);
    }

    void kick() {
        kick_scheduled_ = false;
        const sim::Time now = sim_.now();
        if (now >= busy_until_) {
            start_transmission();
        } else if (!queue_->empty()) {
            // A same-timestamp send beat us to the wire; chase the new
            // busy horizon.
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - now, Kick{this});
        }
    }

    void maybe_corrupt(Packet& packet) {
        if (params_.bit_error_rate <= 0.0 || packet.bytes.empty()) return;
        const double bits = static_cast<double>(packet.size()) * 8.0;
        // P(any bit flips) = 1 - (1 - ber)^bits. A hit flips a burst of one
        // to three adjacent bits, as a bursty channel does at the small
        // rates we model. The Internet checksum sees every such burst: two
        // scattered flips at the same bit of two 16-bit words, in opposite
        // directions, cancel in its one's-complement sum, but a burst of
        // at most three adjacent bits cannot.
        const double p_hit = 1.0 - std::pow(1.0 - params_.bit_error_rate, bits);
        if (!rng_.chance(p_hit)) return;
        ++channel_stats_.packets_corrupted;
        // Flipped bits invalidate any encoder-computed checksum: the
        // receiver must fall back to the full verification fold.
        packet.csum_ok = false;
        const std::uint64_t burst = rng_.uniform(1, 3);
        const std::uint64_t first = rng_.uniform(0, packet.size() * 8 - burst);
        for (std::uint64_t bit = first; bit < first + burst; ++bit) {
            packet.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }

    PointToPointLink& link_;
    sim::Simulator& sim_;
    util::Rng rng_;
    LinkParams params_;
    std::string name_;
    std::unique_ptr<PacketQueue> queue_;
    Port* peer_ = nullptr;
    Channel* out_ = nullptr;
    ChannelStats channel_stats_;
    sim::Time busy_until_;        ///< the wire is serializing until this time
    bool kick_scheduled_ = false; ///< a wake-up at busy_until_ is pending
    std::size_t tx_memo_bytes_ = SIZE_MAX;  ///< last size fed to transmission_time
    sim::Time tx_memo_;                     ///< its serialization delay
};

void PointToPointLink::Channel::deliver_head() {
    std::pop_heap(staged_.begin(), staged_.end(), later_);
    Frame f = std::move(staged_.back());
    staged_.pop_back();
    dst_port_->arrive(Packet{std::move(f.bytes), f.csum_ok});
}

namespace {
// LinkParams' and LanParams' range rules; `owner` prefixes the field in
// the std::invalid_argument message.
struct ParamCheck {
    const char* owner;

    [[noreturn]] void reject(const char* field, const char* rule,
                             const std::string& got) const {
        throw std::invalid_argument(std::string(owner) + "::" + field + " must be " + rule +
                                    ", got " + got);
    }
    void rate(std::uint64_t bits_per_second) const {
        if (bits_per_second == 0) reject("bits_per_second", "> 0", "0");
    }
    void mtu(std::size_t mtu) const {
        if (mtu < 68 || mtu > 65535) reject("mtu", "in [68, 65535]", std::to_string(mtu));
    }
    void probability(const char* field, double p) const {
        if (!(p >= 0.0 && p <= 1.0)) reject(field, "in [0, 1]", std::to_string(p));
    }
    void non_negative(const char* field, sim::Time t) const {
        if (t < sim::Time(0)) reject(field, ">= 0", t.to_string());
    }
};
}  // namespace

void LinkParams::validate() const {
    const ParamCheck check{"LinkParams"};
    check.rate(bits_per_second);
    check.mtu(mtu);
    check.probability("drop_probability", drop_probability);
    check.probability("bit_error_rate", bit_error_rate);
    check.non_negative("propagation_delay", propagation_delay);
    check.non_negative("jitter", jitter);
}

void LanParams::validate() const {
    const ParamCheck check{"LanParams"};
    check.rate(bits_per_second);
    check.mtu(mtu);
    check.probability("drop_probability", drop_probability);
    check.non_negative("propagation_delay", propagation_delay);
}

PointToPointLink::PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng,
                                   const LinkParams& params, std::string name)
    : PointToPointLink(sim, parent_rng, params, params, std::move(name)) {}

PointToPointLink::PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng,
                                   const LinkParams& a_to_b, const LinkParams& b_to_a,
                                   std::string name) {
    a_to_b.validate();
    b_to_a.validate();
    util::Rng link_rng = parent_rng.fork();
    a_ = std::make_unique<Port>(*this, sim, link_rng.fork(), a_to_b, name + ":a");
    b_ = std::make_unique<Port>(*this, sim, link_rng.fork(), b_to_a, name + ":b");
    a_->set_peer(*b_, nullptr);
    b_->set_peer(*a_, nullptr);
}

PointToPointLink::PointToPointLink(sim::ParallelSimulator& psim, std::uint32_t shard_a,
                                   std::uint32_t shard_b, util::Rng& parent_rng,
                                   const LinkParams& params, std::string name) {
    params.validate();
    if (shard_a == shard_b) {
        throw std::invalid_argument("PointToPointLink: a cut link needs two shards, got " +
                                    std::to_string(shard_a) + " twice");
    }
    sim::Simulator& sim_a = psim.shard(shard_a);
    sim::Simulator& sim_b = psim.shard(shard_b);
    util::Rng link_rng = parent_rng.fork();
    const std::int64_t lookahead_ns = params.lookahead().nanos();
    ab_ = std::make_unique<Channel>(shard_a, shard_b, lookahead_ns, sim_a.buffer_pool(),
                                    sim_b.buffer_pool());
    ba_ = std::make_unique<Channel>(shard_b, shard_a, lookahead_ns, sim_b.buffer_pool(),
                                    sim_a.buffer_pool());
    a_ = std::make_unique<Port>(*this, sim_a, link_rng.fork(), params, name + ":a");
    b_ = std::make_unique<Port>(*this, sim_b, link_rng.fork(), params, name + ":b");
    a_->set_peer(*b_, ab_.get());
    b_->set_peer(*a_, ba_.get());
    // Last, so a constructor that throws leaves `psim` no dangling channel.
    psim.register_channel(ab_.get());
    psim.register_channel(ba_.get());
}

PointToPointLink::~PointToPointLink() = default;

NetIf& PointToPointLink::port_a() noexcept { return *a_; }
NetIf& PointToPointLink::port_b() noexcept { return *b_; }

void PointToPointLink::set_up(bool up) {
    up_ = up;
    // Carrier state is visible at both attachments: a cut cable reads as a
    // dead interface, which routing protocols use to withdraw routes.
    a_->set_up(up);
    b_->set_up(up);
}

const ChannelStats& PointToPointLink::stats_a_to_b() const noexcept {
    return a_->channel_stats();
}
const ChannelStats& PointToPointLink::stats_b_to_a() const noexcept {
    return b_->channel_stats();
}

void PointToPointLink::set_queue_a(std::unique_ptr<PacketQueue> q) { a_->set_queue(std::move(q)); }
void PointToPointLink::set_queue_b(std::unique_ptr<PacketQueue> q) { b_->set_queue(std::move(q)); }
PacketQueue& PointToPointLink::queue_a() noexcept { return a_->queue(); }
PacketQueue& PointToPointLink::queue_b() noexcept { return b_->queue(); }

}  // namespace catenet::link
