#include "link/point_to_point.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "link/transmitter.h"

namespace catenet::link {

// One direction of the duplex link: the shared transmitter, delivering by
// a locally scheduled event to its peer.
class PointToPointLink::Port final : public Transmitter<Port> {
public:
    Port(PointToPointLink& link, sim::Simulator& sim, const LinkParams& params,
         std::string name)
        : Transmitter(sim, link.rng_, params, std::move(name)), link_(link) {}

    void set_peer(Port* peer) noexcept { peer_ = peer; }

private:
    friend class Transmitter<Port>;

    bool carrier() const noexcept { return link_.up_; }

    void propagate(Packet&& packet, sim::Time delay) {
        // The packet rides inside the event slot itself (InlineCallback's
        // capture budget covers this + Packet), so any number of packets can
        // be concurrently propagating without heap traffic.
        sim_.schedule_after(delay, [this, p = std::move(packet)]() mutable {
            if (peer_ != nullptr && link_.up_) {
                peer_->deliver(std::move(p));
            } else {
                // In flight when the link failed: lost on the wire.
                ++channel_stats_.packets_lost;
                sim_.buffer_pool().recycle(std::move(p.bytes));
            }
        });
    }

    PointToPointLink& link_;
    Port* peer_ = nullptr;
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
    : rng_(parent_rng.fork()) {
    a_to_b.validate();
    b_to_a.validate();
    a_ = std::make_unique<Port>(*this, sim, a_to_b, name + ":a");
    b_ = std::make_unique<Port>(*this, sim, b_to_a, name + ":b");
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
