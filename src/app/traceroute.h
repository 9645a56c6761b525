// Path discovery built from the architecture's own error machinery: send
// echo requests with increasing TTL; each expiring gateway answers with
// ICMP Time Exceeded (identifying itself), and the destination answers the
// final probe with an Echo Reply. Nothing in the network cooperates
// specially — the diagnostic falls out of goal-3's minimal mechanism,
// which is why the real traceroute could be a user-space hack.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/node.h"

namespace catenet::app {

struct TracerouteHop {
    int ttl = 0;
    /// Responder address; nullopt = probe timed out (silent hop).
    std::optional<util::Ipv4Address> responder;
    sim::Time rtt;
    bool reached_destination = false;
};

struct TracerouteConfig {
    int max_hops = 30;
    sim::Time probe_timeout = sim::seconds(3);
    std::uint16_t icmp_id = 0x7ace;
};

/// Runs one probe per TTL until the destination answers or max_hops is
/// exhausted. Event-driven: on_complete fires with the hop list. Its
/// destructor withdraws the ICMP handlers start() installed on the host,
/// so it may be destroyed at any time — with a probe in flight, or from
/// inside on_complete (the hop list dies with it).
class Traceroute {
public:
    using CompleteFn = std::function<void(const std::vector<TracerouteHop>&)>;

    Traceroute(core::Host& host, util::Ipv4Address dst, TracerouteConfig config = {});
    ~Traceroute();

    void start(CompleteFn on_complete);

    const std::vector<TracerouteHop>& hops() const noexcept { return hops_; }
    bool finished() const noexcept { return finished_; }

private:
    void send_probe();
    void on_probe_answered(util::Ipv4Address responder, bool destination_reached);
    void on_probe_timeout();
    void finish();

    core::Host& host_;
    ip::IpStack::HandlerId reply_handler_ = 0;  ///< the host's ICMP protocol handler
    ip::IpStack::HandlerId error_handler_ = 0;  ///< its ICMP error observer
    util::Ipv4Address dst_;
    TracerouteConfig config_;
    CompleteFn on_complete_;
    std::vector<TracerouteHop> hops_;
    sim::Timer timeout_;
    sim::Time probe_sent_at_;
    int current_ttl_ = 0;
    std::uint16_t seq_ = 0;
    bool finished_ = false;
};

}  // namespace catenet::app
