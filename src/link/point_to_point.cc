#include "link/point_to_point.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace catenet::link {

// One direction of the duplex link: owns the egress queue and the
// transmitter state machine, and knows its peer so it can deliver.
class PointToPointLink::Port final : public NetIf {
public:
    Port(PointToPointLink& link, LinkParams params, std::string name)
        : link_(link),
          params_(params),
          name_(std::move(name)),
          queue_(std::make_unique<DropTailQueue>(params.queue_capacity_packets)) {}

    std::size_t mtu() const noexcept override { return params_.mtu; }
    const std::string& name() const noexcept override { return name_; }

    void send(Packet packet, util::Ipv4Address /*next_hop*/) override {
        if (!up_ || !link_.up_) {
            ++stats_.send_failures;
            link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        const sim::Time now = link_.sim_.now();
        packet.enqueued = now;
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
            link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        if (now >= busy_until_) {
            start_transmission();
        } else if (!kick_scheduled_) {
            // The wire is mid-serialization; wake up exactly when it frees.
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    /// A dead transceiver loses its queued packets. Packets already on the
    /// wire keep propagating and face the carrier check at their arrival.
    void set_up(bool up) override {
        NetIf::set_up(up);
        if (!up) queue_->clear();
    }

    void set_peer(Port* peer) noexcept { peer_ = peer; }
    void set_queue(std::unique_ptr<PacketQueue> q) { queue_ = std::move(q); }
    PacketQueue& queue() noexcept { return *queue_; }
    const ChannelStats& channel_stats() const noexcept { return channel_stats_; }

    void receive_from_peer(Packet&& packet) { deliver(std::move(packet)); }

private:
    // Clocks the head-of-queue packet onto the wire. The serialization and
    // propagation phases collapse into ONE scheduled event: channel
    // outcomes (loss, corruption, jitter) are drawn at transmission start
    // and delivery lands at now + tx + propagation. A separate wake-up
    // ("kick") at busy_until_ is scheduled only when a backlog actually
    // exists, so the uncongested fast path costs a single event per hop.
    void start_transmission() {
        auto next = queue_->dequeue();
        if (!next) return;
        transmit(std::move(*next));
        if (!queue_->empty() && !kick_scheduled_) {
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - link_.sim_.now(), [this] { kick(); });
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
        busy_until_ = link_.sim_.now() + tx;
        ++stats_.packets_sent;
        stats_.bytes_sent += packet.size();
        stats_.busy_ns += static_cast<std::uint64_t>(tx.nanos());
        if (link_.rng_.chance(params_.drop_probability)) {
            ++channel_stats_.packets_lost;
            link_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        maybe_corrupt(packet);
        sim::Time delay = tx + params_.propagation_delay;
        if (params_.jitter > sim::Time(0)) {
            delay += sim::Time(static_cast<std::int64_t>(
                link_.rng_.uniform(0, static_cast<std::uint64_t>(params_.jitter.nanos()))));
        }
        // The packet rides inside the event slot itself (InlineCallback's
        // capture budget covers this + Packet), so any number of packets can
        // be concurrently propagating without heap traffic.
        link_.sim_.schedule_after(delay, [this, p = std::move(packet)]() mutable {
            if (peer_ != nullptr && link_.up_) {
                peer_->receive_from_peer(std::move(p));
            } else {
                // In flight when the link failed: lost on the wire.
                ++channel_stats_.packets_lost;
                link_.sim_.buffer_pool().recycle(std::move(p.bytes));
            }
        });
    }

    void kick() {
        kick_scheduled_ = false;
        const sim::Time now = link_.sim_.now();
        if (now >= busy_until_) {
            start_transmission();
        } else if (!queue_->empty()) {
            // A same-timestamp send beat us to the wire; chase the new
            // busy horizon.
            kick_scheduled_ = true;
            link_.sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    void maybe_corrupt(Packet& packet) {
        if (params_.bit_error_rate <= 0.0 || packet.bytes.empty()) return;
        const double bits = static_cast<double>(packet.size()) * 8.0;
        // P(any bit flips) = 1 - (1 - ber)^bits; for the small rates we
        // model, flipping one to three random bits on a hit is faithful.
        const double p_hit = 1.0 - std::pow(1.0 - params_.bit_error_rate, bits);
        if (!link_.rng_.chance(p_hit)) return;
        ++channel_stats_.packets_corrupted;
        // Flipped bits invalidate any encoder-computed checksum: the
        // receiver must fall back to the full verification fold.
        packet.csum_ok = false;
        const auto flips = link_.rng_.uniform(1, 3);
        for (std::uint64_t i = 0; i < flips; ++i) {
            const auto bit = link_.rng_.uniform(0, packet.size() * 8 - 1);
            packet.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }

    PointToPointLink& link_;
    LinkParams params_;
    std::string name_;
    std::unique_ptr<PacketQueue> queue_;
    Port* peer_ = nullptr;
    sim::Time busy_until_;        ///< the wire is serializing until this time
    bool kick_scheduled_ = false; ///< a wake-up at busy_until_ is pending
    std::size_t tx_memo_bytes_ = SIZE_MAX;  ///< last size fed to transmission_time
    sim::Time tx_memo_;                     ///< its serialization delay
    ChannelStats channel_stats_;
};

namespace {
[[noreturn]] void reject(const char* field, const char* rule, const std::string& got) {
    throw std::invalid_argument(std::string("LinkParams::") + field + " must be " + rule +
                                ", got " + got);
}
}  // namespace

void LinkParams::validate() const {
    if (bits_per_second == 0) reject("bits_per_second", "> 0", "0");
    if (mtu < 68 || mtu > 65535) reject("mtu", "in [68, 65535]", std::to_string(mtu));
    if (!(drop_probability >= 0.0 && drop_probability <= 1.0)) {
        reject("drop_probability", "in [0, 1]", std::to_string(drop_probability));
    }
    if (!(bit_error_rate >= 0.0 && bit_error_rate <= 1.0)) {
        reject("bit_error_rate", "in [0, 1]", std::to_string(bit_error_rate));
    }
    if (propagation_delay < sim::Time(0)) {
        reject("propagation_delay", ">= 0", propagation_delay.to_string());
    }
    if (jitter < sim::Time(0)) reject("jitter", ">= 0", jitter.to_string());
}

PointToPointLink::PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng,
                                   const LinkParams& params, std::string name)
    : PointToPointLink(sim, parent_rng, params, params, std::move(name)) {}

PointToPointLink::PointToPointLink(sim::Simulator& sim, util::Rng& parent_rng,
                                   const LinkParams& a_to_b, const LinkParams& b_to_a,
                                   std::string name)
    : sim_(sim), rng_(parent_rng.fork()) {
    a_to_b.validate();
    b_to_a.validate();
    a_ = std::make_unique<Port>(*this, a_to_b, name + ":a");
    b_ = std::make_unique<Port>(*this, b_to_a, name + ":b");
    a_->set_peer(b_.get());
    b_->set_peer(a_.get());
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
