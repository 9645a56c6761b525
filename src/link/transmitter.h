// The transmitter both kinds of point-to-point port run (DESIGN.md §10):
// an egress queue, a busy-until wire with an idle-wire bypass, a wake-up
// event only when a backlog exists, a memoized serialization delay, and
// the channel model's loss, corruption and jitter draws. PointToPointLink
// and BoundaryLink differ only in where the transmitted packet goes next,
// so each port derives from this class and supplies just that.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "link/netif.h"
#include "link/point_to_point.h"
#include "link/queue.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace catenet::link {

/// One direction of a point-to-point wire. `Port` is the deriving class
/// (CRTP, so both per-packet hooks inline) and supplies:
///   bool carrier() const — carrier state checked on send, beyond this
///       interface's own up flag;
///   void propagate(Packet&&, sim::Time delay) — carries a transmitted
///       packet to the far end, where it arrives `delay` from now.
template <class Port>
class Transmitter : public NetIf {
public:
    Transmitter(sim::Simulator& sim, util::Rng& rng, const LinkParams& params,
                std::string name)
        : sim_(sim),
          rng_(rng),
          params_(params),
          name_(std::move(name)),
          queue_(std::make_unique<DropTailQueue>(params.queue_capacity_packets)) {}
    // Scheduled kicks and deliveries hold `this`.
    Transmitter(const Transmitter&) = delete;
    Transmitter& operator=(const Transmitter&) = delete;

    std::size_t mtu() const noexcept override { return params_.mtu; }
    const std::string& name() const noexcept override { return name_; }

    void send(Packet packet, util::Ipv4Address /*next_hop*/) override {
        if (!up_ || !static_cast<const Port&>(*this).carrier()) {
            ++stats_.send_failures;
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        const sim::Time now = sim_.now();
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
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        if (now >= busy_until_) {
            start_transmission();
        } else if (!kick_scheduled_) {
            // The wire is mid-serialization; wake up exactly when it frees.
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    /// A dead transceiver loses its queued packets. Packets already on the
    /// wire keep propagating and face the far end's carrier at arrival.
    void set_up(bool up) override {
        NetIf::set_up(up);
        if (!up) queue_->clear();
    }

    /// Replaces the egress queue; must be called while it is empty.
    void set_queue(std::unique_ptr<PacketQueue> q) { queue_ = std::move(q); }
    PacketQueue& queue() noexcept { return *queue_; }
    const ChannelStats& channel_stats() const noexcept { return channel_stats_; }

protected:
    sim::Simulator& sim_;
    ChannelStats channel_stats_;

private:
    // Clocks the head-of-queue packet onto the wire. The serialization and
    // propagation phases collapse into ONE hand-off to the port: channel
    // outcomes (loss, corruption, jitter) are drawn at transmission start
    // and the packet arrives at now + tx + propagation. A separate wake-up
    // ("kick") at busy_until_ is scheduled only when a backlog actually
    // exists, so the uncongested fast path costs a single event per hop.
    void start_transmission() {
        auto next = queue_->dequeue();
        if (!next) return;
        transmit(std::move(*next));
        if (!queue_->empty() && !kick_scheduled_) {
            kick_scheduled_ = true;
            sim_.schedule_after(busy_until_ - sim_.now(), [this] { kick(); });
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
        busy_until_ = sim_.now() + tx;
        ++stats_.packets_sent;
        stats_.bytes_sent += packet.size();
        stats_.busy_ns += static_cast<std::uint64_t>(tx.nanos());
        if (rng_.chance(params_.drop_probability)) {
            ++channel_stats_.packets_lost;
            sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        maybe_corrupt(packet);
        sim::Time delay = tx + params_.propagation_delay;
        if (params_.jitter > sim::Time(0)) {
            delay += sim::Time(static_cast<std::int64_t>(
                rng_.uniform(0, static_cast<std::uint64_t>(params_.jitter.nanos()))));
        }
        static_cast<Port&>(*this).propagate(std::move(packet), delay);
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
            sim_.schedule_after(busy_until_ - now, [this] { kick(); });
        }
    }

    void maybe_corrupt(Packet& packet) {
        if (params_.bit_error_rate <= 0.0 || packet.bytes.empty()) return;
        const double bits = static_cast<double>(packet.size()) * 8.0;
        // P(any bit flips) = 1 - (1 - ber)^bits; for the small rates we
        // model, flipping one to three random bits on a hit is faithful.
        const double p_hit = 1.0 - std::pow(1.0 - params_.bit_error_rate, bits);
        if (!rng_.chance(p_hit)) return;
        ++channel_stats_.packets_corrupted;
        // Flipped bits invalidate any encoder-computed checksum: the
        // receiver must fall back to the full verification fold.
        packet.csum_ok = false;
        const auto flips = rng_.uniform(1, 3);
        for (std::uint64_t i = 0; i < flips; ++i) {
            const auto bit = rng_.uniform(0, packet.size() * 8 - 1);
            packet.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }

    util::Rng& rng_;
    LinkParams params_;
    std::string name_;
    std::unique_ptr<PacketQueue> queue_;
    sim::Time busy_until_;        ///< the wire is serializing until this time
    bool kick_scheduled_ = false; ///< a wake-up at busy_until_ is pending
    std::size_t tx_memo_bytes_ = SIZE_MAX;  ///< last size fed to transmission_time
    sim::Time tx_memo_;                     ///< its serialization delay
};

}  // namespace catenet::link
