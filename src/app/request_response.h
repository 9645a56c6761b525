// Request/response over TCP — the "transaction" workload (name lookups,
// RPC) whose per-exchange cost the paper's §cost-effectiveness worries
// about: a 40-byte header tax on tiny messages. Also used to measure
// connection-setup latency (three-way handshake cost per transaction).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/node.h"
#include "util/stats.h"

namespace catenet::app {

/// Serves fixed-size responses: reads a 4-byte request id + 2-byte
/// response size, answers with the id echoed plus padding.
class RpcServer {
public:
    RpcServer(core::Host& host, std::uint16_t port, const tcp::TcpConfig& config = {});

    std::uint64_t requests_served() const noexcept { return served_; }
    /// Accepted connections whose sockets have not closed yet.
    std::size_t open_connections() const noexcept { return conns_.size(); }

private:
    struct Conn {
        std::shared_ptr<tcp::TcpSocket> socket;
        util::ByteBuffer accum;
    };

    void on_bytes(Conn& conn, std::span<const std::uint8_t> data);

    core::Host& host_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::uint64_t served_ = 0;
};

struct RpcClientConfig {
    std::size_t request_extra_bytes = 0;    ///< payload beyond the 6-byte header
    std::uint16_t response_bytes = 128;
    sim::Time mean_interarrival = sim::milliseconds(500);
    bool connection_per_request = false;    ///< measure handshake tax
    tcp::TcpConfig tcp;
};

class RpcClient {
public:
    RpcClient(core::Host& host, util::Ipv4Address dst, std::uint16_t port,
              RpcClientConfig config = {});

    void start();
    void stop();

    const util::Percentiles& latencies_ms() const noexcept { return latencies_; }
    std::uint64_t requests_sent() const noexcept { return sent_; }
    std::uint64_t responses_received() const noexcept { return received_; }

private:
    void issue_request();
    void schedule_next();
    /// Appends `data` to one connection's reassembly buffer and consumes
    /// every complete response in it.
    void on_bytes(util::ByteBuffer& accum, std::span<const std::uint8_t> data);

    core::Host& host_;
    util::Ipv4Address dst_;
    std::uint16_t port_;
    RpcClientConfig config_;
    std::shared_ptr<tcp::TcpSocket> socket_;  ///< persistent-mode connection
    std::vector<std::shared_ptr<tcp::TcpSocket>> transient_;  ///< per-request mode
    sim::Timer timer_;
    std::map<std::uint32_t, sim::Time> outstanding_;
    util::ByteBuffer accum_;  ///< persistent-mode reassembly buffer
    util::Percentiles latencies_;
    std::uint32_t next_id_ = 1;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
    bool running_ = false;
};

}  // namespace catenet::app
