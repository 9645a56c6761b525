#include "tcp/tcp.h"

#include <algorithm>
#include <cstdlib>

#include "ip/protocols.h"
#include "util/logging.h"

namespace catenet::tcp {

namespace {
const util::Logger kLog("tcp");

constexpr std::size_t kIpTcpOverhead = 40;  // IP + TCP fixed headers

// Smallest data segment worth planning for when sizing the out-of-order
// vector: the RFC 1122 default MSS. The reservation bounds entry count so
// reordering storms re-use the same backing store instead of growing it.
constexpr std::size_t kMinPlausibleMss = 536;
}  // namespace

const char* to_string(TcpState s) noexcept {
    switch (s) {
        case TcpState::Closed: return "CLOSED";
        case TcpState::Listen: return "LISTEN";
        case TcpState::SynSent: return "SYN-SENT";
        case TcpState::SynReceived: return "SYN-RECEIVED";
        case TcpState::Established: return "ESTABLISHED";
        case TcpState::FinWait1: return "FIN-WAIT-1";
        case TcpState::FinWait2: return "FIN-WAIT-2";
        case TcpState::CloseWait: return "CLOSE-WAIT";
        case TcpState::Closing: return "CLOSING";
        case TcpState::LastAck: return "LAST-ACK";
        case TcpState::TimeWait: return "TIME-WAIT";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpStack& stack, TcpConfig config)
    : stack_(stack),
      config_(config),
      send_ring_(config.send_buffer),
      recv_ring_(config.recv_buffer),
      rto_timer_(stack.ip().simulator(), [this] { on_rto_fire(); }),
      persist_timer_(stack.ip().simulator(), [this] { on_persist_fire(); }),
      delayed_ack_timer_(stack.ip().simulator(),
                         [this] {
                             // Lazy fire: the flag may have been consumed by
                             // a piggybacked or forced ACK since this was
                             // armed; then the event is a no-op instead of
                             // every ACK paying a cancel.
                             if (ack_pending_) send_ack_now();
                         }),
      time_wait_timer_(stack.ip().simulator(), [this] { finish_and_remove(); }),
      quench_resume_timer_(stack.ip().simulator(), [this] { try_send(); }) {
    out_of_order_.reserve(config_.recv_buffer / kMinPlausibleMss + 1);
}

TcpSocket::~TcpSocket() = default;

void TcpSocket::enter_state(TcpState next) {
    kLog.debug() << stack_.ip().name() << ":" << local_port_ << " " << to_string(state_)
                 << " -> " << to_string(next);
    state_ = next;
}

std::size_t TcpSocket::send_space() const noexcept {
    return config_.send_buffer - std::min(config_.send_buffer, send_ring_.size());
}

const TcpSocketStats& TcpSocket::stats() const {
    stats_.srtt_ms = srtt_ns_ / 1e6;
    stats_.rto_ms = static_cast<double>(current_rto().nanos()) / 1e6;
    stats_.cwnd_bytes = cwnd_;
    stats_.flight_bytes = flight_size();
    return stats_;
}

std::size_t TcpSocket::effective_send_mss() const noexcept {
    std::size_t mss = peer_mss_;
    mss = std::min<std::size_t>(mss, config_.mss_cap);
    if (stack_.ip().interface_count() > 0) {
        const std::size_t mtu = stack_.ip().interface(0).mtu();
        if (mtu > kIpTcpOverhead) mss = std::min(mss, mtu - kIpTcpOverhead);
    }
    return std::max<std::size_t>(mss, 1);
}

std::uint32_t TcpSocket::flight_size() const noexcept { return snd_nxt_ - snd_una_; }

std::uint32_t TcpSocket::usable_window() const noexcept {
    std::uint32_t window = snd_wnd_;
    if (config_.congestion_control) window = std::min(window, cwnd_);
    const std::uint32_t flight = flight_size();
    return window > flight ? window - flight : 0;
}

std::uint16_t TcpSocket::advertised_window() const noexcept {
    // Auto-consuming receiver: the application drains on_data immediately,
    // so the full buffer is always offered — unless the application has
    // closed the tap (set_receive_open(false)), which advertises zero and
    // exercises the sender's persist machinery.
    if (!recv_open_) return 0;
    if (!manual_receive_) {
        return static_cast<std::uint16_t>(
            std::min<std::size_t>(config_.recv_buffer, 0xffff));
    }
    // Manual mode: offer the free buffer, with receiver-side SWS
    // avoidance — do not advance the right edge by dribbles — and never
    // retreat a previously advertised edge.
    const std::size_t free_space =
        config_.recv_buffer - std::min(config_.recv_buffer, recv_ring_.size());
    const std::size_t threshold =
        std::min<std::size_t>(effective_send_mss(), config_.recv_buffer / 2);
    SeqNum candidate_edge = rcv_nxt_ + static_cast<std::uint32_t>(
                                           std::min<std::size_t>(free_space, 0xffff));
    // Only honor the candidate if it moves the edge by a worthwhile step.
    SeqNum edge = rcv_adv_;
    if (seq_gt(candidate_edge, rcv_adv_) &&
        candidate_edge - rcv_adv_ >= static_cast<std::uint32_t>(threshold)) {
        edge = candidate_edge;
    }
    if (seq_lt(edge, rcv_nxt_)) edge = rcv_nxt_;
    rcv_adv_ = edge;
    return static_cast<std::uint16_t>(
        std::min<std::uint32_t>(edge - rcv_nxt_, 0xffff));
}

void TcpSocket::set_manual_receive(bool manual) {
    manual_receive_ = manual;
    if (manual) rcv_adv_ = rcv_nxt_ + advertised_window();
}

std::size_t TcpSocket::read(std::span<std::uint8_t> out) {
    const std::size_t take = std::min(out.size(), recv_ring_.size());
    if (take > 0) {
        recv_ring_.read(0, out.first(take));
        recv_ring_.consume(take);
    }
    if (take > 0 && (state_ == TcpState::Established || state_ == TcpState::CloseWait ||
                     state_ == TcpState::FinWait1 || state_ == TcpState::FinWait2)) {
        // Window update if the opening is worth advertising (SWS check is
        // inside advertised_window()).
        const SeqNum before = rcv_adv_;
        const auto window = advertised_window();
        (void)window;
        if (seq_gt(rcv_adv_, before)) send_ack_now();
    }
    return take;
}

void TcpSocket::set_receive_open(bool open) {
    if (recv_open_ == open) return;
    recv_open_ = open;
    if (state_ == TcpState::Established || state_ == TcpState::CloseWait) {
        send_ack_now();  // window update either way
    }
}

// --- open ------------------------------------------------------------------

void TcpSocket::open_active(util::Ipv4Address dst, std::uint16_t dst_port,
                            std::uint16_t src_port) {
    local_addr_ = stack_.ip().primary_address();
    remote_addr_ = dst;
    remote_port_ = dst_port;
    local_port_ = src_port;
    iss_ = static_cast<SeqNum>(stack_.rng_.uniform(0, 0xffffffffu));
    snd_una_ = iss_;
    snd_nxt_ = iss_ + 1;
    snd_max_ = snd_nxt_;
    cwnd_ = static_cast<std::uint32_t>(effective_send_mss());
    enter_state(TcpState::SynSent);

    TcpFlags syn;
    syn.syn = true;
    send_control(syn, iss_);
    arm_rto();
}

void TcpSocket::open_passive(util::Ipv4Address peer, std::uint16_t peer_port,
                             std::uint16_t local_port, const TcpHeader& syn) {
    local_addr_ = stack_.ip().primary_address();
    remote_addr_ = peer;
    remote_port_ = peer_port;
    local_port_ = local_port;
    irs_ = syn.seq;
    rcv_nxt_ = syn.seq + 1;
    rcv_adv_ = rcv_nxt_;
    if (syn.mss) peer_mss_ = *syn.mss;
    snd_wnd_ = syn.window;
    iss_ = static_cast<SeqNum>(stack_.rng_.uniform(0, 0xffffffffu));
    snd_una_ = iss_;
    snd_nxt_ = iss_ + 1;
    snd_max_ = snd_nxt_;
    cwnd_ = static_cast<std::uint32_t>(effective_send_mss());
    enter_state(TcpState::SynReceived);

    TcpFlags synack;
    synack.syn = true;
    synack.ack = true;
    send_control(synack, iss_);
    arm_rto();
}

// --- application calls -------------------------------------------------------

std::size_t TcpSocket::send(std::span<const std::uint8_t> data) {
    if (state_ != TcpState::Established && state_ != TcpState::CloseWait &&
        state_ != TcpState::SynSent && state_ != TcpState::SynReceived) {
        return 0;
    }
    if (fin_queued_) return 0;
    const std::size_t accept = std::min(data.size(), send_space());
    send_ring_.write(data.first(accept));
    if (state_ == TcpState::Established || state_ == TcpState::CloseWait) {
        try_send();
    }
    return accept;
}

void TcpSocket::push() {
    push_requested_ = true;
    if (state_ == TcpState::Established || state_ == TcpState::CloseWait) {
        try_send();
    }
}

void TcpSocket::close() {
    switch (state_) {
        case TcpState::SynSent:
            finish_and_remove();
            return;
        case TcpState::SynReceived:
        case TcpState::Established:
            fin_queued_ = true;
            enter_state(TcpState::FinWait1);
            try_send();
            return;
        case TcpState::CloseWait:
            fin_queued_ = true;
            enter_state(TcpState::LastAck);
            try_send();
            return;
        default:
            return;  // already closing or closed
    }
}

void TcpSocket::abort() {
    if (state_ == TcpState::Closed) return;
    if (state_ != TcpState::SynSent && state_ != TcpState::Listen) {
        TcpFlags rst;
        rst.rst = true;
        rst.ack = true;
        send_control(rst, snd_nxt_);
    }
    finish_and_remove();
}

// --- send machinery -----------------------------------------------------------

void TcpSocket::try_send() {
    if (state_ != TcpState::Established && state_ != TcpState::CloseWait &&
        state_ != TcpState::FinWait1 && state_ != TcpState::Closing &&
        state_ != TcpState::LastAck) {
        return;
    }

    // Pre-Jacobson quench hold-off: stay silent until the pause expires.
    if (stack_.ip().simulator().now() < quench_hold_until_) return;

    const std::size_t mss = effective_send_mss();
    bool sent_any = false;

    while (true) {
        if (fin_sent_) break;  // everything (incl. FIN) already in flight
        const std::uint32_t in_flight_data = flight_size();
        if (send_ring_.size() < in_flight_data) break;  // defensive
        const std::size_t unsent = send_ring_.size() - in_flight_data;
        const std::uint32_t usable = usable_window();

        const bool want_fin =
            fin_queued_ && unsent == 0 &&
            (state_ == TcpState::FinWait1 || state_ == TcpState::LastAck ||
             state_ == TcpState::Closing);

        if (unsent == 0) {
            if (want_fin) {
                send_segment(snd_nxt_, 0, /*fin=*/true, /*force_psh=*/false);
                sent_any = true;
            }
            break;
        }

        std::size_t len = std::min({unsent, mss, static_cast<std::size_t>(usable)});
        if (len == 0) {
            // Window (flow or congestion) closed with data pending.
            if (snd_wnd_ == 0 && in_flight_data == 0) {
                if (!persist_timer_.pending()) {
                    stack_.counters_.inc(telemetry::Counter::TcpZeroWindowEvents);
                }
                persist_timer_.schedule_if_idle(config_.persist_interval);
            }
            break;
        }

        // Nagle: a small segment waits while anything is unacknowledged.
        // (PSH marks urgency to the receiver; per the algorithm it does
        // NOT override the batching — only disabling Nagle does.)
        if (config_.nagle && len < mss && in_flight_data > 0 && !fin_queued_) {
            break;
        }

        const bool drains = (len == unsent);
        const bool fin_now = want_fin || (fin_queued_ && drains &&
                                          (state_ == TcpState::FinWait1 ||
                                           state_ == TcpState::LastAck ||
                                           state_ == TcpState::Closing));
        send_segment(snd_nxt_, len, fin_now, push_requested_ && drains);
        if (drains) push_requested_ = false;
        sent_any = true;
    }

    if (sent_any) {
        arm_rto();
        // Any data segment carries the current ACK; the pending delayed-ACK
        // obligation is satisfied without touching its timer (lazy fire).
        ack_pending_ = false;
        segments_since_ack_ = 0;
    }
}

// Sends payload bytes [seq, seq+length) out of the send ring (possibly a
// retransmission — byte sequencing means we repacketize freely), optionally
// carrying FIN. The payload is never copied here: the ring hands back views
// and the codec gathers them straight into the wire buffer.
void TcpSocket::send_segment(SeqNum seq, std::size_t length, bool fin, bool force_psh) {
    TcpHeader h;
    h.src_port = local_port_;
    h.dst_port = remote_port_;
    h.seq = seq;
    h.ack = rcv_nxt_;
    h.flags.ack = true;
    h.flags.fin = fin;
    h.flags.psh = force_psh || fin;
    h.window = advertised_window();

    util::RingBuffer::Spans payload;
    if (length > 0) {
        payload = send_ring_.peek(seq - snd_una_, length);
    }

    const bool is_retransmission = seq_lt(seq, snd_max_);
    if (is_retransmission) {
        ++stats_.retransmitted_segments;
        stack_.counters_.inc(telemetry::Counter::TcpRetransSegs);
        stats_.retransmitted_bytes += length;
        // Karn's rule: a retransmission invalidates RTT timing.
        timing_ = false;
    } else {
        stats_.bytes_sent += length;
        if (!timing_ && length > 0 && config_.adaptive_rto) {
            timing_ = true;
            timed_seq_ = seq;
            timed_sent_at_ = stack_.ip().simulator().now();
        }
    }

    const SeqNum end = seq + static_cast<std::uint32_t>(length) + (fin ? 1 : 0);
    if (seq == snd_nxt_) snd_nxt_ = end;
    if (seq_gt(end, snd_max_)) snd_max_ = end;
    if (fin) {
        fin_sent_ = true;
        fin_seq_out_ = seq + static_cast<std::uint32_t>(length);
    }

    transmit(h, payload.first, payload.second);
}

void TcpSocket::send_control(TcpFlags flags, SeqNum seq) {
    TcpHeader h;
    h.src_port = local_port_;
    h.dst_port = remote_port_;
    h.seq = seq;
    h.flags = flags;
    if (flags.ack) h.ack = rcv_nxt_;
    h.window = advertised_window();
    if (flags.syn) {
        // Announce the MSS we can receive: bounded by our own MTU, not by
        // anything the peer said.
        std::size_t announce = config_.mss_cap;
        if (stack_.ip().interface_count() > 0) {
            const std::size_t mtu = stack_.ip().interface(0).mtu();
            if (mtu > kIpTcpOverhead) announce = std::min(announce, mtu - kIpTcpOverhead);
        }
        h.mss = static_cast<std::uint16_t>(announce);
    }
    transmit(h, {}, {});
}

void TcpSocket::send_ack_now() {
    if (state_ == TcpState::Closed || state_ == TcpState::Listen ||
        state_ == TcpState::SynSent) {
        return;
    }
    // The delayed-ACK timer is deliberately left pending: its lazy-fire
    // callback sees ack_pending_ == false and does nothing. Clearing the
    // flag here is the whole cost of satisfying the obligation.
    ack_pending_ = false;
    segments_since_ack_ = 0;
    TcpFlags f;
    f.ack = true;
    send_control(f, snd_nxt_);
}

void TcpSocket::schedule_ack() {
    ++segments_since_ack_;
    if (!config_.delayed_ack || segments_since_ack_ >= 2) {
        send_ack_now();
        return;
    }
    ack_pending_ = true;
    delayed_ack_timer_.schedule_if_idle(config_.delayed_ack_timeout);
}

void TcpSocket::transmit(const TcpHeader& header, std::span<const std::uint8_t> payload_a,
                         std::span<const std::uint8_t> payload_b) {
    // One buffer start to finish: the codec lays the segment out behind
    // kIpv4HeaderSize bytes of headroom, the IP layer serializes its header
    // into that headroom, and the link takes ownership — the only payload
    // copy on the whole send path is the ring-to-wire gather above.
    auto wire = encode_tcp_segment(header, local_addr_, remote_addr_, payload_a,
                                   payload_b, ip::kIpv4HeaderSize,
                                   stack_.ip().simulator().buffer_pool());
    ip::SendOptions opts;
    opts.tos = config_.tos;
    opts.source = local_addr_;
    // encode_tcp_segment just computed the transport checksum, which is
    // what send_with_headroom's checksum vouch requires of its caller.
    stack_.ip().send_with_headroom(ip::kProtoTcp, remote_addr_, std::move(wire), opts);
    ++stats_.segments_sent;
    stack_.counters_.inc(telemetry::Counter::TcpSegsOut);
}

// --- timers ---------------------------------------------------------------------

sim::Time TcpSocket::current_rto() const noexcept {
    if (!config_.adaptive_rto) return config_.fixed_rto;
    sim::Time base = config_.initial_rto;
    if (rtt_valid_) {
        base = sim::Time(static_cast<std::int64_t>(srtt_ns_ + 4.0 * rttvar_ns_));
    }
    base = std::clamp(base, config_.min_rto, config_.max_rto);
    for (int i = 0; i < backoff_; ++i) {
        base = base * 2;
        if (base >= config_.max_rto) return config_.max_rto;
    }
    return base;
}

// Lazy re-arm (the BSD trick): every transmitted segment and every ACK
// restarts the retransmission clock, so a naive implementation pays a heap
// reschedule per packet. Instead the restart is one variable store — the
// deadline — and the armed timer is left alone; when it fires early it
// checks the deadline and goes back to sleep for the remainder. In a
// healthy transfer that is one wake-up per RTO period instead of two heap
// operations per segment.
void TcpSocket::arm_rto() {
    const sim::Time rto = current_rto();
    rto_deadline_ = stack_.ip().simulator().now() + rto;
    if (!rto_timer_.pending() || rto_timer_.expiry() > rto_deadline_) {
        rto_timer_.schedule(rto);
    }
}

void TcpSocket::update_rtt(sim::Time sample) {
    const auto s = static_cast<double>(sample.nanos());
    if (!rtt_valid_) {
        srtt_ns_ = s;
        rttvar_ns_ = s / 2.0;
        rtt_valid_ = true;
    } else {
        // Jacobson 1988, the standard gains.
        const double err = s - srtt_ns_;
        srtt_ns_ += err / 8.0;
        rttvar_ns_ += (std::abs(err) - rttvar_ns_) / 4.0;
    }
}

void TcpSocket::on_rto_fire() {
    const sim::Time now = stack_.ip().simulator().now();
    if (now < rto_deadline_) {
        // The deadline moved while we slept (segments were ACKed); this is
        // the lazy re-arm's deferred reschedule, not a timeout.
        rto_timer_.schedule(rto_deadline_ - now);
        return;
    }
    ++stats_.timeouts;
    stack_.counters_.inc(telemetry::Counter::TcpRtos);
    ++consecutive_timeouts_;
    if (consecutive_timeouts_ > config_.max_retries) {
        fail_connection();
        return;
    }
    if (config_.adaptive_rto) ++backoff_;
    timing_ = false;  // Karn

    if (state_ == TcpState::SynSent || state_ == TcpState::SynReceived) {
        // Resend our SYN; the passive side's carries the ACK of the peer's.
        TcpFlags syn;
        syn.syn = true;
        syn.ack = state_ == TcpState::SynReceived;
        send_control(syn, iss_);
        ++stats_.retransmitted_segments;
        stack_.counters_.inc(telemetry::Counter::TcpRetransSegs);
        arm_rto();
        return;
    }
    if (flight_size() == 0 && !fin_queued_) return;

    // Congestion response to loss (Jacobson): collapse to one segment.
    if (config_.congestion_control) {
        const auto mss = static_cast<std::uint32_t>(effective_send_mss());
        ssthresh_ = std::max(flight_size() / 2, 2 * mss);
        cwnd_ = mss;
        cwnd_acc_ = 0;
    }
    dup_acks_ = 0;

    // Go back to the first unacknowledged byte; byte sequencing lets us
    // repacketize the whole outstanding region at the current MSS.
    snd_nxt_ = snd_una_;
    fin_sent_ = false;
    try_send();
    arm_rto();
}

void TcpSocket::on_persist_fire() {
    if (state_ == TcpState::Closed) return;
    if (snd_wnd_ > 0) return;  // window opened meanwhile
    // Zero-window probe: one byte beyond the window, if we have one.
    const std::uint32_t in_flight = flight_size();
    if (send_ring_.size() > in_flight) {
        send_segment(snd_nxt_, 1, false, true);
    } else {
        send_ack_now();
    }
    persist_timer_.schedule(config_.persist_interval);
}

// --- congestion control -----------------------------------------------------------

void TcpSocket::on_ack_advance(std::uint32_t acked_bytes) {
    consecutive_timeouts_ = 0;
    backoff_ = 0;
    dup_acks_ = 0;
    if (!config_.congestion_control || acked_bytes == 0) return;
    const auto mss = static_cast<std::uint32_t>(effective_send_mss());
    if (cwnd_ < ssthresh_) {
        cwnd_ += mss;  // slow start: exponential growth
    } else {
        // Congestion avoidance: one MSS per RTT's worth of ACKed bytes.
        cwnd_acc_ += acked_bytes;
        if (cwnd_acc_ >= cwnd_) {
            cwnd_acc_ -= cwnd_;
            cwnd_ += mss;
        }
    }
}

void TcpSocket::on_duplicate_ack() {
    ++stats_.duplicate_acks_received;
    stack_.counters_.inc(telemetry::Counter::TcpDupAcks);
    if (!config_.fast_retransmit) return;
    ++dup_acks_;
    if (dup_acks_ == 3) {
        ++stats_.fast_retransmits;
        stack_.counters_.inc(telemetry::Counter::TcpFastRetransmits);
        enter_loss_recovery();
    }
}

void TcpSocket::on_source_quench() {
    // The gateway threw our datagram away and said so.
    if (!config_.respect_source_quench) return;
    ++stats_.source_quenches;
    if (config_.congestion_control) {
        // 4.3BSD-with-Jacobson behaviour: collapse to one segment and
        // slow-start again.
        const auto mss = static_cast<std::uint32_t>(effective_send_mss());
        ssthresh_ = std::max(flight_size() / 2, 2 * mss);
        cwnd_ = mss;
        cwnd_acc_ = 0;
    } else {
        // Pre-Jacobson host: no window machinery to shrink, so do what
        // 4.3BSD did before slow start existed — stop transmitting for a
        // beat and let the queue drain.
        const sim::Time hold =
            rtt_valid_ ? sim::Time(static_cast<std::int64_t>(2.0 * srtt_ns_))
                       : sim::milliseconds(300);
        quench_hold_until_ = stack_.ip().simulator().now() + hold;
        quench_resume_timer_.schedule(hold);
    }
}

void TcpSocket::enter_loss_recovery() {
    // Tahoe: retransmit the missing segment, then slow-start again.
    if (config_.congestion_control) {
        const auto mss = static_cast<std::uint32_t>(effective_send_mss());
        ssthresh_ = std::max(flight_size() / 2, 2 * mss);
        cwnd_ = mss;
        cwnd_acc_ = 0;
    }
    const std::size_t resend =
        std::min<std::size_t>(effective_send_mss(), send_ring_.size());
    if (resend > 0) {
        send_segment(snd_una_, resend, false, false);
        arm_rto();
    }
}

// --- segment arrival ----------------------------------------------------------------

void TcpSocket::on_segment(const TcpHeader& h, std::span<const std::uint8_t> payload) {
    ++stats_.segments_received;

    if (state_ == TcpState::SynSent) {
        if (h.flags.ack && (seq_leq(h.ack, iss_) || seq_gt(h.ack, snd_nxt_))) {
            if (!h.flags.rst) {
                TcpFlags rst;
                rst.rst = true;
                send_control(rst, h.ack);
            }
            return;
        }
        if (h.flags.rst) {
            if (h.flags.ack) fail_connection();
            return;
        }
        if (h.flags.syn) {
            irs_ = h.seq;
            rcv_nxt_ = h.seq + 1;
            rcv_adv_ = rcv_nxt_;
            if (h.mss) peer_mss_ = *h.mss;
            snd_wnd_ = h.window;
            if (h.flags.ack) {
                snd_una_ = h.ack;
                cwnd_ = static_cast<std::uint32_t>(effective_send_mss());
                enter_state(TcpState::Established);
                consecutive_timeouts_ = 0;
                backoff_ = 0;
                rto_timer_.cancel();
                send_ack_now();
                if (on_connected) on_connected();
                try_send();
            } else {
                // Simultaneous open.
                enter_state(TcpState::SynReceived);
                TcpFlags synack;
                synack.syn = true;
                synack.ack = true;
                send_control(synack, iss_);
                arm_rto();
            }
        }
        return;
    }

    // --- sequence acceptability (RFC 793 p. 69) ---
    const std::uint32_t seg_len = static_cast<std::uint32_t>(payload.size()) +
                                  (h.flags.syn ? 1 : 0) + (h.flags.fin ? 1 : 0);
    const std::uint32_t rcv_wnd = advertised_window();
    bool acceptable;
    if (seg_len == 0) {
        acceptable = rcv_wnd == 0 ? h.seq == rcv_nxt_
                                  : seq_in_window(h.seq, rcv_nxt_, rcv_wnd) || h.seq == rcv_nxt_;
    } else {
        acceptable = rcv_wnd > 0 &&
                     (seq_in_window(h.seq, rcv_nxt_, rcv_wnd) ||
                      seq_in_window(h.seq + seg_len - 1, rcv_nxt_, rcv_wnd) ||
                      (seq_leq(h.seq, rcv_nxt_) && seq_lt(rcv_nxt_, h.seq + seg_len)));
    }
    if (!acceptable) {
        if (!h.flags.rst) send_ack_now();
        return;
    }

    if (h.flags.rst) {
        handle_rst();
        return;
    }

    if (h.flags.syn && seq_geq(h.seq, rcv_nxt_)) {
        // SYN in the window: fatal error per RFC.
        TcpFlags rst;
        rst.rst = true;
        send_control(rst, snd_nxt_);
        fail_connection();
        return;
    }

    if (!h.flags.ack) return;

    const bool opening = state_ == TcpState::SynReceived;
    if (opening) {
        if (seq_in_window(h.ack, snd_una_ + 1, flight_size()) || h.ack == snd_nxt_) {
            snd_una_ = h.ack;
            snd_wnd_ = h.window;
            cwnd_ = static_cast<std::uint32_t>(effective_send_mss());
            enter_state(TcpState::Established);
            consecutive_timeouts_ = 0;
            backoff_ = 0;
            rto_timer_.cancel();
            stack_.counters_.inc(telemetry::Counter::TcpConnsAccepted);
        } else {
            TcpFlags rst;
            rst.rst = true;
            send_control(rst, h.ack);
            return;
        }
    }

    handle_ack(h, !payload.empty());
    if (state_ == TcpState::Closed) return;
    if (opening) {
        // After handle_ack: bytes the callback sends would otherwise be in
        // flight when this ACK is judged, and count it as a duplicate.
        if (on_connected) on_connected();
        if (state_ == TcpState::Closed) return;  // the callback aborted
        // Bytes queued before the handshake completed: handle_ack sends
        // only what a moved ack or window releases.
        try_send();
    }

    if (!payload.empty()) {
        process_payload(h, payload);
    }

    if (h.flags.fin) {
        const SeqNum fin_seq = h.seq + static_cast<std::uint32_t>(payload.size());
        if (fin_seq == rcv_nxt_) {
            rcv_nxt_ += 1;
            send_ack_now();
            // Transition FIRST: an on_remote_close callback that calls
            // close() must observe CloseWait, not the pre-FIN state.
            switch (state_) {
                case TcpState::Established:
                    enter_state(TcpState::CloseWait);
                    break;
                case TcpState::FinWait1:
                    // Our FIN not yet acked (else we'd be in FinWait2).
                    enter_state(TcpState::Closing);
                    break;
                case TcpState::FinWait2:
                    enter_state(TcpState::TimeWait);
                    time_wait_timer_.schedule(config_.msl * 2);
                    break;
                default:
                    break;
            }
            if (on_remote_close) on_remote_close();
        } else if (seq_gt(fin_seq, rcv_nxt_)) {
            // FIN beyond a hole: ack what we have; peer will retransmit.
            send_ack_now();
        }
    }
}

void TcpSocket::handle_ack(const TcpHeader& h, bool has_payload) {
    if (seq_gt(h.ack, snd_max_)) {
        // Acks something never sent.
        send_ack_now();
        return;
    }

    if (seq_gt(h.ack, snd_una_)) {
        const std::uint32_t acked = h.ack - snd_una_;
        // Split the acked range into data bytes and the FIN's virtual byte.
        std::uint32_t data_acked = acked;
        const bool fin_covered = fin_seq_out_ && seq_gt(h.ack, *fin_seq_out_);
        if (fin_covered) data_acked -= 1;
        data_acked = std::min<std::uint32_t>(data_acked,
                                             static_cast<std::uint32_t>(send_ring_.size()));

        // RTT sample (Karn-safe: timing_ was invalidated on retransmit).
        if (timing_ && seq_gt(h.ack, timed_seq_)) {
            update_rtt(stack_.ip().simulator().now() - timed_sent_at_);
            timing_ = false;
        }

        const bool buffer_was_full = send_space() == 0;
        send_ring_.consume(data_acked);
        snd_una_ = h.ack;
        if (seq_lt(snd_nxt_, snd_una_)) snd_nxt_ = snd_una_;  // post-rewind catch-up
        snd_wnd_ = h.window;
        on_ack_advance(data_acked);

        if (flight_size() == 0) {
            rto_timer_.cancel();
        } else {
            arm_rto();
        }

        if (fin_covered) {
            switch (state_) {
                case TcpState::FinWait1:
                    enter_state(TcpState::FinWait2);
                    break;
                case TcpState::Closing:
                    enter_state(TcpState::TimeWait);
                    time_wait_timer_.schedule(config_.msl * 2);
                    return;
                case TcpState::LastAck:
                    finish_and_remove();
                    return;
                default:
                    break;
            }
        }

        if (buffer_was_full && send_space() > 0 && on_send_space) on_send_space();
        try_send();
    } else if (h.ack == snd_una_) {
        // Window update or duplicate. With the ack and the window both
        // unchanged nothing the sender may send has changed since the last
        // try_send(): new data, an ack advance, a completed handshake and
        // every timer run it themselves, so only a moved window earns
        // another pass.
        const bool window_moved = h.window != snd_wnd_;
        const bool dup = flight_size() > 0 && !window_moved && !has_payload;
        snd_wnd_ = h.window;
        if (snd_wnd_ > 0) persist_timer_.cancel();
        if (dup) {
            on_duplicate_ack();
        } else if (window_moved) {
            try_send();
        }
    }
}

void TcpSocket::process_payload(const TcpHeader& h, std::span<const std::uint8_t> payload) {
    SeqNum seq = h.seq;
    std::span<const std::uint8_t> data = payload;

    // Trim anything we already have.
    if (seq_lt(seq, rcv_nxt_)) {
        const std::uint32_t dup = rcv_nxt_ - seq;
        if (dup >= data.size()) {
            send_ack_now();  // wholly duplicate
            return;
        }
        data = data.subspan(dup);
        seq = rcv_nxt_;
    }

    if (seq == rcv_nxt_) {
        deliver(data);
        deliver_in_order();
        schedule_ack();
    } else {
        // Out of order: hold (bounded by the receive buffer, in a pooled
        // buffer) and send an immediate duplicate ACK so the sender's fast
        // retransmit works. The capacity guard keeps the sorted vector from
        // ever growing past its connection-setup reservation.
        ++stats_.out_of_order_segments;
        if (ooo_bytes_ + data.size() <= config_.recv_buffer &&
            out_of_order_.size() < out_of_order_.capacity()) {
            const auto pos = std::lower_bound(
                out_of_order_.begin(), out_of_order_.end(), seq,
                [](const OooSegment& s, SeqNum v) { return seq_lt(s.seq, v); });
            if (pos == out_of_order_.end() || pos->seq != seq) {
                util::ByteBuffer held =
                    stack_.ip().simulator().buffer_pool().acquire(data.size());
                held.assign(data.begin(), data.end());
                ooo_bytes_ += data.size();
                out_of_order_.insert(pos, OooSegment{seq, std::move(held)});
            }
        }
        send_ack_now();
    }
}

void TcpSocket::deliver_in_order() {
    while (!out_of_order_.empty()) {
        if (seq_gt(out_of_order_.front().seq, rcv_nxt_)) break;
        const SeqNum seq = out_of_order_.front().seq;
        util::ByteBuffer data = std::move(out_of_order_.front().data);
        out_of_order_.erase(out_of_order_.begin());
        ooo_bytes_ -= data.size();
        const SeqNum end = seq + static_cast<std::uint32_t>(data.size());
        if (seq_leq(end, rcv_nxt_)) {
            // Entirely duplicate.
            stack_.ip().simulator().buffer_pool().recycle(std::move(data));
            continue;
        }
        const std::uint32_t skip = rcv_nxt_ - seq;
        deliver({data.data() + skip, data.size() - skip});
        stack_.ip().simulator().buffer_pool().recycle(std::move(data));
    }
}

void TcpSocket::deliver(std::span<const std::uint8_t> data) {
    // Manual mode stores before advancing so rcv_nxt_ only covers bytes
    // the ring actually holds; a sender that overruns the advertised
    // window retransmits the truncated tail.
    std::size_t taken = data.size();
    if (manual_receive_) taken = recv_ring_.write(data);
    rcv_nxt_ += static_cast<std::uint32_t>(taken);
    stats_.bytes_received += taken;
    if (manual_receive_) {
        if (taken > 0 && on_readable) on_readable();
    } else if (on_data) {
        on_data(data);
    }
}

void TcpSocket::handle_rst() {
    fail_connection();
}

void TcpSocket::fail_connection() {
    if (removed_) return;
    const bool was_open = state_ != TcpState::Closed;
    enter_state(TcpState::Closed);
    if (was_open && on_reset) on_reset();
    finish_and_remove();
}

void TcpSocket::finish_and_remove() {
    if (removed_) return;
    removed_ = true;
    enter_state(TcpState::Closed);
    rto_timer_.cancel();
    persist_timer_.cancel();
    delayed_ack_timer_.cancel();
    time_wait_timer_.cancel();
    if (on_closed) on_closed();
    stack_.remove_connection(
        make_conn_key(remote_addr_.value(), remote_port_, local_port_));
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(ip::IpStack& ip, util::Rng& parent_rng)
    : ip_(ip), rng_(parent_rng.fork()) {
    ip_.register_protocol(
        ip::kProtoTcp,
        [this](const ip::Ipv4Header& h, std::span<const std::uint8_t> p, std::size_t) {
            on_segment(h, p);
        });
    ip_.add_icmp_error_handler(
        [this](const ip::IcmpMessage& msg, util::Ipv4Address) {
            if (msg.type == ip::IcmpType::SourceQuench) on_source_quench(msg);
        });
}

// Locates the quenched connection from the ICMP-quoted datagram: the
// quote carries our IP header (20 B) plus the first 8 TCP bytes — ports
// and sequence number.
void TcpStack::on_source_quench(const ip::IcmpMessage& msg) {
    if (msg.body.size() < 24) return;
    if (msg.body[9] != ip::kProtoTcp) return;
    const util::Ipv4Address remote((static_cast<std::uint32_t>(msg.body[16]) << 24) |
                                   (static_cast<std::uint32_t>(msg.body[17]) << 16) |
                                   (static_cast<std::uint32_t>(msg.body[18]) << 8) |
                                   static_cast<std::uint32_t>(msg.body[19]));
    const auto local_port =
        static_cast<std::uint16_t>((msg.body[20] << 8) | msg.body[21]);
    const auto remote_port =
        static_cast<std::uint16_t>((msg.body[22] << 8) | msg.body[23]);
    if (auto* entry = connections_.find(
            make_conn_key(remote.value(), remote_port, local_port))) {
        (*entry)->on_source_quench();
    }
}

std::uint16_t TcpStack::allocate_port() {
    for (int attempts = 0; attempts < 0xffff; ++attempts) {
        const std::uint16_t candidate = next_ephemeral_;
        next_ephemeral_ = candidate == 0xffff ? 49152 : candidate + 1;
        const bool in_use =
            listeners_.contains(candidate) ||
            connections_.any_of([&](std::uint64_t key, const auto&) {
                return conn_key_local_port(key) == candidate;
            });
        if (!in_use) return candidate;
    }
    throw std::runtime_error("no free TCP ephemeral ports");
}

std::shared_ptr<TcpSocket> TcpStack::connect(util::Ipv4Address dst, std::uint16_t dst_port,
                                             const TcpConfig& config) {
    const std::uint16_t src_port = allocate_port();
    auto socket = std::shared_ptr<TcpSocket>(new TcpSocket(*this, config));
    connections_.insert(make_conn_key(dst.value(), dst_port, src_port), socket);
    counters_.inc(telemetry::Counter::TcpConnsOpened);
    socket->open_active(dst, dst_port, src_port);
    return socket;
}

void TcpStack::listen(std::uint16_t port, AcceptHandler on_accept, const TcpConfig& config) {
    if (listeners_.contains(port)) {
        throw std::invalid_argument("TCP port already listening: " + std::to_string(port));
    }
    listeners_[port] = Listener{std::move(on_accept), config};
}

void TcpStack::stop_listening(std::uint16_t port) { listeners_.erase(port); }

void TcpStack::on_segment(const ip::Ipv4Header& header,
                          std::span<const std::uint8_t> payload) {
    counters_.inc(telemetry::Counter::TcpSegsIn);
    std::span<const std::uint8_t> data;
    std::optional<TcpHeader> h;
    try {
        // The checksum fold is skipped while the internet layer vouches
        // for this datagram (csum_ok end to end) — it would provably pass.
        h = decode_tcp(header.src, header.dst, payload, data, !ip_.rx_csum_ok());
    } catch (const util::DecodeError&) {
        counters_.inc(telemetry::Counter::TcpDropChecksum);
        return;
    }
    if (!h) {
        counters_.inc(telemetry::Counter::TcpDropChecksum);
        return;
    }

    const std::uint64_t key = make_conn_key(header.src.value(), h->src_port, h->dst_port);
    if (auto* entry = connections_.find(key)) {
        // Keep the socket alive through the callback even if it removes
        // itself from the table.
        auto socket = *entry;
        socket->on_segment(*h, data);
        return;
    }

    // No connection. A SYN may match a listener.
    if (h->flags.syn && !h->flags.ack && !h->flags.rst) {
        if (auto lit = listeners_.find(h->dst_port); lit != listeners_.end()) {
            auto socket =
                std::shared_ptr<TcpSocket>(new TcpSocket(*this, lit->second.config));
            connections_.insert(key, socket);
            socket->open_passive(header.src, h->src_port, h->dst_port, *h);
            if (lit->second.on_accept) lit->second.on_accept(socket);
            return;
        }
    }

    counters_.inc(telemetry::Counter::TcpDropNoConnection);
    if (!h->flags.rst) send_reset(header, *h, data.size());
}

void TcpStack::send_reset(const ip::Ipv4Header& header, const TcpHeader& offending,
                          std::size_t payload_len) {
    TcpHeader rst;
    rst.src_port = offending.dst_port;
    rst.dst_port = offending.src_port;
    rst.flags.rst = true;
    if (offending.flags.ack) {
        rst.seq = offending.ack;
    } else {
        rst.flags.ack = true;
        rst.ack = offending.seq + static_cast<std::uint32_t>(payload_len) +
                  (offending.flags.syn ? 1 : 0) + (offending.flags.fin ? 1 : 0);
    }
    const auto wire = encode_tcp(rst, header.dst, header.src, {});
    ip::SendOptions opts;
    opts.source = header.dst;
    ip_.send(ip::kProtoTcp, header.src, wire, opts);
    counters_.inc(telemetry::Counter::TcpResetsSent);
}

void TcpStack::remove_connection(std::uint64_t key) {
    auto* entry = connections_.find(key);
    if (entry == nullptr) return;
    auto doomed = std::move(*entry);
    connections_.erase(key);
    // Defer the final release one event: remove_connection is often called
    // from deep inside the doomed socket's own call stack (timer fire,
    // segment processing), and destroying it mid-flight would be UB.
    ip_.simulator().schedule_after(sim::Time(0), [doomed] {});
}

}  // namespace catenet::tcp
