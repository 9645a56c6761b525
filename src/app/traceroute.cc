#include "app/traceroute.h"

#include "ip/protocols.h"

namespace catenet::app {

Traceroute::Traceroute(core::Host& host, util::Ipv4Address dst, TracerouteConfig config)
    : host_(host),
      dst_(dst),
      config_(config),
      timeout_(host.simulator(), [this] { on_probe_timeout(); }) {}

Traceroute::~Traceroute() {
    host_.ip().remove_protocol(ip::kProtoIcmp, reply_handler_);
    host_.ip().remove_icmp_error_handler(error_handler_);
}

void Traceroute::start(CompleteFn on_complete) {
    on_complete_ = std::move(on_complete);

    // Claim the host's ICMP delivery hooks. (One active traceroute per
    // host; fine for a diagnostic.)
    reply_handler_ = host_.ip().register_protocol(
        ip::kProtoIcmp,
        [this](const ip::Ipv4Header& h, std::span<const std::uint8_t> payload,
               std::size_t) {
            auto msg = ip::decode_icmp(payload);
            if (!msg || finished_) return;
            if (msg->type == ip::IcmpType::EchoReply && msg->echo_id() == config_.icmp_id &&
                msg->echo_seq() == seq_) {
                on_probe_answered(h.src, /*destination_reached=*/true);
            }
        });
    error_handler_ = host_.ip().add_icmp_error_handler(
        [this](const ip::IcmpMessage& msg, util::Ipv4Address from) {
            if (finished_ || msg.type != ip::IcmpType::TimeExceeded) return;
            // The error quotes our datagram: IP header (20 B) + the first
            // 8 ICMP bytes, where the id/seq of the expired probe live.
            if (msg.body.size() < 28) return;
            const std::uint16_t id =
                static_cast<std::uint16_t>((msg.body[24] << 8) | msg.body[25]);
            const std::uint16_t seq =
                static_cast<std::uint16_t>((msg.body[26] << 8) | msg.body[27]);
            if (id == config_.icmp_id && seq == seq_) {
                on_probe_answered(from, /*destination_reached=*/false);
            }
        });

    current_ttl_ = 1;
    send_probe();
}

void Traceroute::send_probe() {
    ++seq_;
    probe_sent_at_ = host_.simulator().now();
    host_.ip().ping(dst_, config_.icmp_id, seq_, {}, static_cast<std::uint8_t>(current_ttl_));
    timeout_.schedule(config_.probe_timeout);
}

void Traceroute::on_probe_answered(util::Ipv4Address responder, bool destination_reached) {
    timeout_.cancel();
    TracerouteHop hop;
    hop.ttl = current_ttl_;
    hop.responder = responder;
    hop.rtt = host_.simulator().now() - probe_sent_at_;
    hop.reached_destination = destination_reached;
    hops_.push_back(hop);
    if (destination_reached || current_ttl_ >= config_.max_hops) {
        finish();
        return;
    }
    ++current_ttl_;
    send_probe();
}

void Traceroute::on_probe_timeout() {
    TracerouteHop hop;
    hop.ttl = current_ttl_;
    hop.rtt = config_.probe_timeout;
    hops_.push_back(hop);
    if (current_ttl_ >= config_.max_hops) {
        finish();
        return;
    }
    ++current_ttl_;
    send_probe();
}

void Traceroute::finish() {
    finished_ = true;
    // The callback may destroy this Traceroute: it runs from a local.
    const CompleteFn on_complete = std::move(on_complete_);
    if (on_complete) on_complete(hops_);
}

}  // namespace catenet::app
