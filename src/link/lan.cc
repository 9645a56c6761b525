#include "link/lan.h"

#include <algorithm>
#include <stdexcept>

namespace catenet::link {

namespace {

// Link-layer framing on the LAN: 2-byte destination port, then payload.
constexpr std::size_t kFrameHeader = 2;

// Frames in place: the two header bytes are inserted at the front of the
// existing buffer rather than rebuilding it through a BufferWriter, so a
// pooled buffer keeps its identity (and, after first growth, its
// capacity) across the encode -> frame -> deliver -> strip cycle.
Packet frame_packet(Packet packet, std::uint16_t dst_port) {
    const std::uint8_t hi = static_cast<std::uint8_t>(dst_port >> 8);
    const std::uint8_t lo = static_cast<std::uint8_t>(dst_port & 0xff);
    packet.bytes.insert(packet.bytes.begin(), {hi, lo});
    return packet;
}

}  // namespace

class Lan::Port final : public NetIf {
public:
    Port(Lan& lan, std::size_t index, std::string name)
        : lan_(lan), index_(index), name_(std::move(name)),
          queue_(std::make_unique<DropTailQueue>(lan.params_.queue_capacity_packets)) {}

    std::size_t mtu() const noexcept override { return lan_.params_.mtu; }
    const std::string& name() const noexcept override { return name_; }

    void send(Packet packet, util::Ipv4Address next_hop) override {
        if (!up_ || !lan_.up_) {
            ++stats_.send_failures;
            lan_.sim_.buffer_pool().recycle(std::move(packet.bytes));
            return;
        }
        std::uint16_t dst = kBroadcastPort;
        if (!next_hop.is_unspecified()) {
            auto it = lan_.neighbors_.find(next_hop);
            if (it == lan_.neighbors_.end()) {
                // Unresolvable next hop: a real LAN would ARP and fail;
                // we count it and drop.
                ++stats_.send_failures;
                lan_.sim_.buffer_pool().recycle(std::move(packet.bytes));
                return;
            }
            dst = static_cast<std::uint16_t>(it->second);
        }
        Packet frame = frame_packet(std::move(packet), dst);
        if (!queue_->enqueue(std::move(frame))) {
            // Strip the LAN framing so observers see the network-layer
            // datagram they handed us (frame intact on rejection per the
            // PacketQueue contract).
            frame.bytes.erase(frame.bytes.begin(),
                              frame.bytes.begin() + static_cast<std::ptrdiff_t>(kFrameHeader));
            notify_drop(frame);
            lan_.sim_.buffer_pool().recycle(std::move(frame.bytes));
            return;
        }
        lan_.transmit_from(index_);
    }

    // The medium took one of this station's frames. Counted here, not at
    // enqueue, as a point-to-point port counts at transmission: a frame
    // flushed from the queue was never sent.
    void note_transmitted(std::size_t frame_bytes, sim::Time tx) {
        ++stats_.packets_sent;
        stats_.bytes_sent += frame_bytes;
        stats_.busy_ns += static_cast<std::uint64_t>(tx.nanos());
    }

    void set_up(bool up) override {
        NetIf::set_up(up);
        if (!up) queue_->flush(lan_.sim_.buffer_pool());
    }

    // Strips framing and hands the payload to the bound node; a port that
    // is down loses the frame as the LAN's channel loss.
    void receive_frame(Packet frame) {
        frame.bytes.erase(frame.bytes.begin(),
                          frame.bytes.begin() + static_cast<std::ptrdiff_t>(kFrameHeader));
        if (deliver(std::move(frame))) return;
        ++lan_.channel_stats_.packets_lost;
        lan_.sim_.buffer_pool().recycle(std::move(frame.bytes));
    }

    PacketQueue& queue() noexcept { return *queue_; }

private:
    Lan& lan_;
    std::size_t index_;
    std::string name_;
    std::unique_ptr<PacketQueue> queue_;
};

Lan::Lan(sim::Simulator& sim, util::Rng& parent_rng, const LanParams& params, std::string name)
    : sim_(sim), rng_(parent_rng.fork()), params_(params), name_(std::move(name)) {
    params_.validate();
}

Lan::~Lan() = default;

NetIf& Lan::add_port() {
    const std::size_t index = ports_.size();
    ports_.push_back(std::make_unique<Port>(*this, index, name_ + ":" + std::to_string(index)));
    return *ports_.back();
}

std::size_t Lan::port_count() const noexcept { return ports_.size(); }

void Lan::register_address(util::Ipv4Address addr, std::size_t port_index) {
    if (port_index >= ports_.size()) {
        throw std::out_of_range("Lan::register_address: no such port");
    }
    neighbors_[addr] = port_index;
}

const PacketQueue& Lan::queue(std::size_t port_index) const {
    return ports_.at(port_index)->queue();
}

std::uint64_t Lan::total_bytes_sent() const noexcept {
    std::uint64_t total = 0;
    for (const auto& port : ports_) total += port->stats().bytes_sent;
    return total;
}

void Lan::set_up(bool up) {
    up_ = up;
    if (!up) {
        for (auto& port : ports_) port->queue().flush(sim_.buffer_pool());
        backlog_.clear();
        medium_busy_ = false;
    }
}

void Lan::transmit_from(std::size_t port_index) {
    if (std::find(backlog_.begin(), backlog_.end(), port_index) == backlog_.end()) {
        backlog_.push_back(port_index);
    }
    if (!medium_busy_) medium_idle();
}

void Lan::medium_idle() {
    while (!backlog_.empty()) {
        const std::size_t src = backlog_.front();
        auto frame = ports_[src]->queue().dequeue();
        if (!frame) {
            backlog_.erase(backlog_.begin());
            continue;
        }
        medium_busy_ = true;
        const sim::Time tx = serialization_time(frame->size(), params_.bits_per_second);
        ports_[src]->note_transmitted(frame->size(), tx);
        // The frame rides inside the event slot itself: this + src + a
        // 32-byte Packet is a 48-byte capture, inside InlineCallback's
        // 64-byte budget. A forwarding station can re-enter medium_idle()
        // from inside a delivery, so more than one frame can be in flight
        // at once, and each slot is its own storage — no side free list,
        // no heap traffic.
        sim_.schedule_after(tx + params_.propagation_delay,
                            [this, src, delivered = std::move(*frame)]() mutable {
            medium_busy_ = false;
            if (up_) {
                deliver_frame(src, std::move(delivered));
            } else {
                ++channel_stats_.packets_lost;
                sim_.buffer_pool().recycle(std::move(delivered.bytes));
            }
            // If the source's queue drained, retire it from the backlog.
            if (!backlog_.empty() && ports_[backlog_.front()]->queue().empty()) {
                backlog_.erase(backlog_.begin());
            } else if (!backlog_.empty()) {
                // Round-robin: move the sender to the back.
                auto head = backlog_.front();
                backlog_.erase(backlog_.begin());
                backlog_.push_back(head);
            }
            medium_idle();
        });
        return;
    }
}

void Lan::deliver_frame(std::size_t src_port, Packet frame) {
    if (rng_.chance(params_.drop_probability)) {
        ++channel_stats_.packets_lost;
        sim_.buffer_pool().recycle(std::move(frame.bytes));
        return;
    }
    util::BufferReader r(frame.bytes);
    const std::uint16_t dst = r.get_u16();
    if (dst == kBroadcastPort) {
        for (std::size_t i = 0; i < ports_.size(); ++i) {
            if (i == src_port) continue;
            util::ByteBuffer copy = sim_.buffer_pool().acquire(frame.size());
            copy.assign(frame.bytes.begin(), frame.bytes.end());
            ports_[i]->receive_frame(Packet{std::move(copy), frame.csum_ok});
        }
        sim_.buffer_pool().recycle(std::move(frame.bytes));
    } else if (dst < ports_.size() && dst != src_port) {
        ports_[dst]->receive_frame(std::move(frame));
    } else {
        sim_.buffer_pool().recycle(std::move(frame.bytes));
    }
}

}  // namespace catenet::link
