#include "vc/link_arq.h"

#include <algorithm>
#include <vector>

namespace catenet::vc {

namespace {
constexpr std::uint8_t kKindData = 1;
constexpr std::uint8_t kKindAck = 2;

bool seq16_lt(std::uint16_t a, std::uint16_t b) {
    return static_cast<std::int16_t>(a - b) < 0;
}
}  // namespace

LinkArq::LinkArq(sim::Simulator& sim, link::NetIf& netif, LinkArqConfig config)
    : netif_(netif),
      config_(config),
      rto_timer_(sim, [this] { on_rto(); }) {
    netif_.set_receiver([this](link::Packet p) { on_packet(std::move(p)); });
}

void LinkArq::send(util::ByteBuffer frame) {
    outstanding_.push_back(std::move(frame));
    try_send();
}

void LinkArq::reset() {
    rcv_buffer_.clear();
    outstanding_.clear();
    base_seq_ = 0;
    next_unsent_ = 0;
    rcv_expected_ = 0;
    retry_round_ = 0;
    rto_timer_.cancel();
}

void LinkArq::try_send() {
    while (next_unsent_ < outstanding_.size() && next_unsent_ < config_.window) {
        transmit(static_cast<std::uint16_t>(base_seq_ + next_unsent_),
                 outstanding_[next_unsent_]);
        ++next_unsent_;
        ++stats_.frames_sent;
    }
    if (!outstanding_.empty()) rto_timer_.schedule_if_idle(config_.rto);
}

void LinkArq::transmit(std::uint16_t seq, const util::ByteBuffer& frame) {
    util::BufferWriter w(5 + frame.size());
    w.put_u8(kKindData);
    w.put_u16(seq);
    w.put_u16(rcv_expected_);  // piggybacked cumulative ack
    w.put_bytes(frame);
    netif_.send(link::Packet{w.take()}, util::Ipv4Address{});
}

void LinkArq::send_ack() {
    util::BufferWriter w(5);
    w.put_u8(kKindAck);
    w.put_u16(0);
    w.put_u16(rcv_expected_);
    netif_.send(link::Packet{w.take()}, util::Ipv4Address{});
    ++stats_.acks_sent;
}

void LinkArq::on_packet(link::Packet packet) {
    util::BufferReader r(packet.bytes);
    std::uint8_t kind;
    std::uint16_t seq;
    std::uint16_t ack;
    try {
        kind = r.get_u8();
        seq = r.get_u16();
        ack = r.get_u16();
    } catch (const util::DecodeError&) {
        return;
    }

    // Process the (piggybacked) ack.
    if (seq16_lt(base_seq_, ack) || ack == static_cast<std::uint16_t>(
                                              base_seq_ + outstanding_.size())) {
        const std::uint16_t advanced = ack - base_seq_;
        if (advanced <= outstanding_.size()) {
            outstanding_.erase(outstanding_.begin(), outstanding_.begin() + advanced);
            base_seq_ = ack;
            next_unsent_ -= std::min<std::size_t>(next_unsent_, advanced);
            retry_round_ = 0;
            if (outstanding_.empty()) {
                rto_timer_.cancel();
            } else {
                rto_timer_.schedule(config_.rto);
            }
            try_send();
        }
    }

    if (kind == kKindData) {
        if (seq == rcv_expected_) {
            ++rcv_expected_;
            ++stats_.frames_delivered;
            std::vector<util::ByteBuffer> ready;
            ready.push_back(util::to_buffer(r.remaining()));
            // Drain buffered successors (selective repeat).
            for (auto it = rcv_buffer_.find(rcv_expected_); it != rcv_buffer_.end();
                 it = rcv_buffer_.find(rcv_expected_)) {
                ready.push_back(std::move(it->second));
                rcv_buffer_.erase(it);
                ++rcv_expected_;
                ++stats_.frames_delivered;
            }
            send_ack();
            if (deliver_) {
                for (auto& frame : ready) deliver_(frame);
            }
        } else if (seq16_lt(rcv_expected_, seq) &&
                   static_cast<std::uint16_t>(seq - rcv_expected_) <= 2 * config_.window) {
            // Ahead of the hole: hold it and re-ack the gap.
            rcv_buffer_.emplace(seq, util::to_buffer(r.remaining()));
            send_ack();
        } else {
            // Duplicate of something already delivered: re-ack.
            send_ack();
        }
    }
}

void LinkArq::on_rto() {
    ++retry_round_;
    if (retry_round_ > config_.max_retries) {
        // The other side is not acking: declare the link down.
        if (on_link_failed_) on_link_failed_();
        return;
    }
    // Selective repeat: resend only the unacknowledged head; the receiver
    // holds everything after the hole.
    if (next_unsent_ > 0) {
        transmit(base_seq_, outstanding_[0]);
        ++stats_.frames_retransmitted;
    }
    if (!outstanding_.empty()) rto_timer_.schedule(config_.rto);
}

}  // namespace catenet::vc
