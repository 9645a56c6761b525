// TCP, 1988 edition: the full RFC 793 state machine with byte-granularity
// sequence numbers (the paper's §TCP discussion: byte, not packet,
// sequencing permits repacketization on retransmission), sliding-window
// flow control, adaptive retransmission (Jacobson SRTT/RTTVAR with Karn's
// rule and exponential backoff), Tahoe-style slow start / congestion
// avoidance / fast retransmit, Nagle's algorithm, delayed ACKs,
// silly-window-syndrome avoidance, zero-window probing, and TIME-WAIT.
//
// Every era-appropriate mechanism is individually switchable in TcpConfig
// so the host-burden (E6) and ablation benchmarks can measure what each
// one buys. Nothing newer than the paper (no SACK, window scaling, ECN).
//
// The established-connection data path is allocation-free in steady state:
// send and receive buffers are power-of-two rings (util::RingBuffer), the
// retransmission "queue" is nothing but sequence arithmetic over the send
// ring (a resend is a peek at a smaller offset), segment wire buffers come
// from the per-simulator BufferPool with IP-header headroom so the IP layer
// serializes in place, out-of-order segments are held in pooled buffers,
// and demux is an open-addressed hash (ConnTable). A Van Jacobson style
// header-prediction fast path short-circuits the two overwhelmingly common
// segment shapes — pure ACK and next-expected data — past the full RFC 793
// receive processing; see try_fast_path for the exact predicate.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ip/ip_stack.h"
#include "sim/timer.h"
#include "tcp/conn_table.h"
#include "tcp/sequence.h"
#include "tcp/tcp_header.h"
#include "util/random.h"
#include "util/ring_buffer.h"

namespace catenet::tcp {

enum class TcpState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
};

const char* to_string(TcpState s) noexcept;

struct TcpConfig {
    std::size_t send_buffer = 64 * 1024;
    std::size_t recv_buffer = 64 * 1024;
    /// Cap on the MSS we announce; the effective value also respects the
    /// local interface MTU. 536 is the RFC 1122 default.
    std::uint16_t mss_cap = 1460;

    bool nagle = true;
    bool delayed_ack = true;
    /// Jacobson slow start + congestion avoidance. Off = dumb 1986-style
    /// sender that fills the offered window (congestion-collapse fuel).
    bool congestion_control = true;
    bool fast_retransmit = true;

    /// React to ICMP Source Quench by entering slow start (the BSD
    /// behaviour of the era). Meaningful only with congestion_control.
    bool respect_source_quench = true;

    /// Adaptive RTO (Jacobson/Karn). Off = fixed_rto for the naive-host
    /// experiment (E6).
    bool adaptive_rto = true;
    sim::Time fixed_rto = sim::seconds(3);
    sim::Time initial_rto = sim::seconds(1);
    sim::Time min_rto = sim::milliseconds(200);
    sim::Time max_rto = sim::seconds(64);

    sim::Time delayed_ack_timeout = sim::milliseconds(200);
    sim::Time msl = sim::seconds(30);  ///< TIME-WAIT = 2 * msl
    sim::Time persist_interval = sim::seconds(1);
    int max_retries = 12;  ///< consecutive RTOs before giving up (reset)

    /// IP type-of-service bits for this connection (goal 2).
    std::uint8_t tos = 0;
};

struct TcpSocketStats {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t bytes_sent = 0;          ///< app payload bytes, first transmission
    std::uint64_t bytes_received = 0;      ///< app payload bytes delivered in order
    std::uint64_t retransmitted_segments = 0;
    std::uint64_t retransmitted_bytes = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t source_quenches = 0;
    std::uint64_t duplicate_acks_received = 0;
    std::uint64_t out_of_order_segments = 0;
    /// Header-prediction hits: segments fully handled by the fast path.
    std::uint64_t fast_path_acks = 0;
    std::uint64_t fast_path_data = 0;
    double srtt_ms = 0.0;
    double rto_ms = 0.0;
    std::uint64_t cwnd_bytes = 0;
    std::uint64_t flight_bytes = 0;  ///< sent but unacknowledged right now
};

class TcpStack;

/// A TCP connection endpoint. Event-driven: register callbacks, then call
/// send()/close(). Created via TcpStack::connect or a listener's accept
/// callback; always lives in a shared_ptr because the stack and the
/// application share it.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
public:
    ~TcpSocket();
    TcpSocket(const TcpSocket&) = delete;
    TcpSocket& operator=(const TcpSocket&) = delete;

    // --- application interface ---------------------------------------
    /// Fires when the three-way handshake completes.
    std::function<void()> on_connected;
    /// In-order payload delivery. The data is consumed by the callback.
    std::function<void(std::span<const std::uint8_t>)> on_data;
    /// Peer sent FIN (no more inbound data; outbound may continue).
    std::function<void()> on_remote_close;
    /// Connection fully terminated (normally or by reset/failure).
    std::function<void()> on_closed;
    /// Connection reset by peer or by repeated timeout.
    std::function<void()> on_reset;
    /// Send-buffer space became available after being full.
    std::function<void()> on_send_space;

    /// Queues application bytes; returns how many were accepted (bounded
    /// by send-buffer space). Zero means "try again after on_send_space".
    std::size_t send(std::span<const std::uint8_t> data);

    /// Marks the current outbound data as urgent-to-deliver (sets PSH on
    /// the final segment of the buffered burst).
    void push();

    /// Flow-control tap. While closed, the receive window advertised to
    /// the peer is zero: the sender must hold data and probe. Reopening
    /// sends a window update. Models a slow application (goal-2 and
    /// flow-control tests).
    void set_receive_open(bool open);

    /// Switches to application-paced receiving: in-order data queues in
    /// the socket (shrinking the advertised window) until the application
    /// read()s it. on_data is not called in this mode; on_readable fires
    /// when new bytes queue. This is the full RFC 793 window dance, with
    /// receiver-side silly-window avoidance on the updates.
    void set_manual_receive(bool manual);

    /// Manual mode: copies up to out.size() queued bytes, frees window
    /// space, and sends a window update when the opening is worth
    /// advertising. Returns bytes copied.
    std::size_t read(std::span<std::uint8_t> out);

    /// Manual mode: bytes queued and readable right now.
    std::size_t bytes_available() const noexcept { return recv_ring_.size(); }

    /// Manual mode: fires when bytes_available() grows.
    std::function<void()> on_readable;

    /// Graceful close (FIN after queued data drains).
    void close();

    /// Hard reset.
    void abort();

    TcpState state() const noexcept { return state_; }
    bool connected() const noexcept { return state_ == TcpState::Established; }
    std::size_t send_space() const noexcept;
    const TcpSocketStats& stats() const;
    util::Ipv4Address remote_address() const noexcept { return remote_addr_; }
    std::uint16_t remote_port() const noexcept { return remote_port_; }
    std::uint16_t local_port() const noexcept { return local_port_; }
    const TcpConfig& config() const noexcept { return config_; }

private:
    friend class TcpStack;

    TcpSocket(TcpStack& stack, TcpConfig config);

    // --- state machine -----------------------------------------------
    void open_active(util::Ipv4Address dst, std::uint16_t dst_port,
                     std::uint16_t src_port);
    void open_passive(util::Ipv4Address peer, std::uint16_t peer_port,
                      std::uint16_t local_port, const TcpHeader& syn);
    void on_segment(const TcpHeader& header, std::span<const std::uint8_t> payload);
    /// Header prediction (Van Jacobson's receive fast path): handles an
    /// in-order data segment or a forward pure ACK on an undisturbed
    /// Established connection without entering the RFC 793 slow path.
    /// Returns false (having done nothing) on any deviation.
    bool try_fast_path(const TcpHeader& header, std::span<const std::uint8_t> payload);
    void enter_state(TcpState next);

    // --- send machinery ------------------------------------------------
    void try_send();
    void send_segment(SeqNum seq, std::size_t length, bool fin, bool force_psh);
    void send_control(TcpFlags flags, SeqNum seq);
    void send_ack_now();
    void schedule_ack();
    /// Encodes header + payload (gathered from up to two ring spans) into
    /// a pooled wire buffer with IP headroom and hands it off in place.
    void transmit(const TcpHeader& header, std::span<const std::uint8_t> payload_a,
                  std::span<const std::uint8_t> payload_b);
    std::size_t effective_send_mss() const noexcept;
    std::uint32_t flight_size() const noexcept;
    std::uint32_t usable_window() const noexcept;
    std::uint16_t advertised_window() const noexcept;

    // --- receive machinery ---------------------------------------------
    void process_payload(const TcpHeader& header, std::span<const std::uint8_t> payload);
    void deliver_in_order();

    // --- timers ----------------------------------------------------------
    void arm_rto();
    void on_rto_fire();
    void on_persist_fire();
    void update_rtt(sim::Time sample);
    sim::Time current_rto() const noexcept;

    // --- congestion control ----------------------------------------------
    void on_ack_advance(std::uint32_t acked_bytes);
    void on_duplicate_ack();
    void enter_loss_recovery();
    void on_source_quench();

    void handle_ack(const TcpHeader& header, bool has_payload);
    void handle_rst();
    void fail_connection();
    void finish_and_remove();

    TcpStack& stack_;
    TcpConfig config_;
    TcpState state_ = TcpState::Closed;

    util::Ipv4Address local_addr_;
    util::Ipv4Address remote_addr_;
    std::uint16_t local_port_ = 0;
    std::uint16_t remote_port_ = 0;

    // Send state (RFC 793 names).
    SeqNum iss_ = 0;
    SeqNum snd_una_ = 0;
    SeqNum snd_nxt_ = 0;
    /// Highest sequence ever sent. snd_nxt_ rewinds to snd_una_ on RTO
    /// (go-back-N over the byte stream); ACK validity is judged against
    /// snd_max_ so ACKs of pre-rewind flights are honored.
    SeqNum snd_max_ = 0;
    std::optional<SeqNum> fin_seq_out_;  ///< sequence of our FIN, once sent
    std::uint32_t snd_wnd_ = 0;
    /// Unacknowledged + unsent bytes; front is snd_una_. Retransmission
    /// state is just offsets into this ring — no per-segment copies exist
    /// until a segment is serialized to the wire.
    util::RingBuffer send_ring_;
    bool fin_queued_ = false;
    bool fin_sent_ = false;
    bool push_requested_ = false;
    std::uint16_t peer_mss_ = 536;

    // Receive state.
    SeqNum irs_ = 0;
    SeqNum rcv_nxt_ = 0;
    /// Highest right window edge ever advertised (the window must never
    /// visibly retreat); used by manual-mode SWS avoidance. Starts at
    /// rcv_nxt_ when the peer's SYN arrives: sequence comparisons are
    /// modulo 2^32, so an edge left at 0 reads as ahead of an rcv_nxt_
    /// past 2^31 and would advertise up to 65,535 bytes whatever the buffer.
    /// Updated from the logically-const advertisement computation.
    mutable SeqNum rcv_adv_ = 0;
    /// Segments beyond rcv_nxt_, sorted by seq, payloads in pooled
    /// buffers. Bounded: ooo_bytes_ <= recv_buffer and entry count at the
    /// reserved capacity, so steady-state reordering never allocates.
    struct OooSegment {
        SeqNum seq;
        util::ByteBuffer data;
    };
    std::vector<OooSegment> out_of_order_;
    std::size_t ooo_bytes_ = 0;
    util::RingBuffer recv_ring_;  ///< manual mode only
    bool manual_receive_ = false;
    bool fin_received_ = false;
    SeqNum fin_seq_ = 0;

    // Congestion control.
    std::uint32_t cwnd_ = 0;
    std::uint32_t ssthresh_ = 0xffffffff;
    std::uint32_t cwnd_acc_ = 0;  ///< byte accumulator for congestion avoidance
    int dup_acks_ = 0;

    // RTT estimation (Jacobson, in nanoseconds).
    bool rtt_valid_ = false;
    double srtt_ns_ = 0.0;
    double rttvar_ns_ = 0.0;
    int backoff_ = 0;
    int consecutive_timeouts_ = 0;
    // Karn: the send time of the segment being timed; invalid when a
    // retransmission overlaps it.
    bool timing_ = false;
    SeqNum timed_seq_ = 0;
    sim::Time timed_sent_at_;

    // Delayed ACK.
    int segments_since_ack_ = 0;
    bool ack_pending_ = false;
    bool recv_open_ = true;

    sim::Timer rto_timer_;
    /// The retransmission clock's true expiry. arm_rto() only bumps this
    /// store; the armed timer re-sleeps to it when it wakes early, so
    /// restarting the clock on every segment/ACK costs no heap operation.
    sim::Time rto_deadline_;
    sim::Timer persist_timer_;
    /// Lazily-fired: left pending after an ACK goes out and re-armed with
    /// schedule_if_idle, so the per-segment cost is a flag write, not a
    /// cancel+schedule pair. A fire with ack_pending_ clear is a no-op.
    sim::Timer delayed_ack_timer_;
    sim::Timer time_wait_timer_;
    /// Pre-Jacobson quench response: transmission pause (see
    /// on_source_quench).
    sim::Time quench_hold_until_;
    sim::Timer quench_resume_timer_;

    mutable TcpSocketStats stats_;
    bool removed_ = false;
};

struct TcpStackStats {
    std::uint64_t segments_received = 0;
    std::uint64_t dropped_bad_checksum = 0;
    std::uint64_t dropped_no_connection = 0;
    std::uint64_t resets_sent = 0;
    std::uint64_t connections_opened = 0;
    std::uint64_t connections_accepted = 0;
};

/// Per-host TCP: demultiplexes segments to connections and holds
/// listeners. One instance per Host.
class TcpStack {
public:
    using AcceptHandler = std::function<void(std::shared_ptr<TcpSocket>)>;

    TcpStack(ip::IpStack& ip, util::Rng& parent_rng);
    TcpStack(const TcpStack&) = delete;
    TcpStack& operator=(const TcpStack&) = delete;

    /// Active open. The socket reports via its callbacks.
    std::shared_ptr<TcpSocket> connect(util::Ipv4Address dst, std::uint16_t dst_port,
                                       const TcpConfig& config = {});

    /// Passive open: new connections arrive at the accept handler already
    /// in SynReceived; on_connected fires when established.
    void listen(std::uint16_t port, AcceptHandler on_accept, const TcpConfig& config = {});
    void stop_listening(std::uint16_t port);

    ip::IpStack& ip() noexcept { return ip_; }
    /// Statistics view, synthesized from the counter block (the single
    /// storage, as for ip::IpStack::stats()).
    TcpStackStats stats() const noexcept {
        using telemetry::Counter;
        TcpStackStats s;
        s.segments_received = counters_.get(Counter::TcpSegsIn);
        s.dropped_bad_checksum = counters_.get(Counter::TcpDropChecksum);
        s.dropped_no_connection = counters_.get(Counter::TcpDropNoConnection);
        s.resets_sent = counters_.get(Counter::TcpResetsSent);
        s.connections_opened = counters_.get(Counter::TcpConnsOpened);
        s.connections_accepted = counters_.get(Counter::TcpConnsAccepted);
        return s;
    }
    /// This stack's TCP counter slots, all connections folded in (the
    /// TcpStackStats fields plus sums of per-socket TcpSocketStats).
    const telemetry::CounterBlock& counters() const noexcept { return counters_; }

    /// Currently tracked connections (debug/test aid).
    std::size_t connection_count() const noexcept { return connections_.size(); }

private:
    friend class TcpSocket;

    struct Listener {
        AcceptHandler on_accept;
        TcpConfig config;
    };

    void on_segment(const ip::Ipv4Header& header, std::span<const std::uint8_t> payload);

    void on_source_quench(const ip::IcmpMessage& msg);
    void send_reset(const ip::Ipv4Header& header, const TcpHeader& offending,
                    std::size_t payload_len);
    void remove_connection(std::uint64_t key);
    std::uint16_t allocate_port();

    ip::IpStack& ip_;
    util::Rng rng_;
    ConnTable<std::shared_ptr<TcpSocket>> connections_;
    std::map<std::uint16_t, Listener> listeners_;
    telemetry::CounterBlock counters_;
    std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace catenet::tcp
