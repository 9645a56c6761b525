// Hop-by-hop reliability: a sliding-window selective-repeat ARQ over one
// link direction (receiver buffers out-of-order frames; the sender
// retransmits only the unacknowledged head). Every link in the VC network
// runs one of these each way, so a frame lost on hop N is repaired on hop
// N at a cost of ~one frame — the "reliability inside the network"
// discipline the paper's cost analysis (E5) and survivability analysis
// (E1/E8) compare against end-to-end recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "link/netif.h"
#include "sim/timer.h"
#include "util/byte_buffer.h"

namespace catenet::vc {

struct LinkArqConfig {
    std::size_t window = 8;
    sim::Time rto = sim::milliseconds(500);
    /// Consecutive retransmission rounds before declaring the link dead.
    int max_retries = 6;
};

struct LinkArqStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_retransmitted = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t acks_sent = 0;
};

/// Full-duplex reliable framing over one NetIf. Owns both the sender and
/// receiver role for its side of the link.
class LinkArq {
public:
    using DeliverFn = std::function<void(util::ByteBuffer frame)>;
    using LinkFailedFn = std::function<void()>;

    LinkArq(sim::Simulator& sim, link::NetIf& netif, LinkArqConfig config = {});

    void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
    void set_on_link_failed(LinkFailedFn fn) { on_link_failed_ = std::move(fn); }

    /// Queues a frame for reliable in-order delivery to the other side.
    void send(util::ByteBuffer frame);

    /// Discards all state (node restart).
    void reset();

    std::size_t backlog() const noexcept { return outstanding_.size(); }
    const LinkArqStats& stats() const noexcept { return stats_; }

private:
    void on_packet(link::Packet packet);
    void try_send();
    void transmit(std::uint16_t seq, const util::ByteBuffer& frame);
    void send_ack();
    void on_rto();

    link::NetIf& netif_;
    LinkArqConfig config_;
    DeliverFn deliver_;
    LinkFailedFn on_link_failed_;

    std::deque<util::ByteBuffer> outstanding_;  ///< unacked + unsent
    std::uint16_t base_seq_ = 0;
    std::size_t next_unsent_ = 0;
    std::uint16_t rcv_expected_ = 0;
    std::map<std::uint16_t, util::ByteBuffer> rcv_buffer_;  ///< out-of-order hold
    int retry_round_ = 0;
    sim::Timer rto_timer_;
    LinkArqStats stats_;
};

}  // namespace catenet::vc
