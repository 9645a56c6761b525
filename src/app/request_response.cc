#include "app/request_response.h"

namespace catenet::app {

namespace {
// Request wire: id(4) response_size(2) [extra payload].
// Response wire: id(4) then padding to response_size (>= 4).
constexpr std::size_t kRequestHeader = 6;
}  // namespace

RpcServer::RpcServer(core::Host& host, std::uint16_t port, const tcp::TcpConfig& config)
    : host_(host) {
    // Transaction servers disable Nagle: a response must not wait behind
    // the ack of the previous one.
    tcp::TcpConfig rpc_config = config;
    rpc_config.nagle = false;
    host_.tcp().listen(
        port,
        [this](std::shared_ptr<tcp::TcpSocket> socket) {
            auto conn = std::make_shared<Conn>();
            conn->socket = socket;
            conns_.push_back(conn);
            // Raw Conn capture: the socket owns these callbacks, so a
            // strong capture of the Conn (which owns the socket) would be
            // a reference cycle. conns_ keeps the Conn alive for the
            // server's lifetime, the same contract as the `this` capture.
            Conn* c = conn.get();
            socket->on_data = [this, c](std::span<const std::uint8_t> data) {
                on_bytes(*c, data);
            };
            socket->on_remote_close = [c] { c->socket->close(); };
        },
        rpc_config);
}

void RpcServer::on_bytes(Conn& conn, std::span<const std::uint8_t> data) {
    conn.accum.insert(conn.accum.end(), data.begin(), data.end());
    while (conn.accum.size() >= kRequestHeader) {
        util::BufferReader r(conn.accum);
        const std::uint32_t id = r.get_u32();
        const std::uint16_t response_size = r.get_u16();
        // Requests are exactly header-sized in this protocol; any extra
        // request payload rides in front of the next header and is skipped
        // by the client's sizing, so consume only the header here.
        conn.accum.erase(conn.accum.begin(), conn.accum.begin() + kRequestHeader);

        const std::size_t size = std::max<std::size_t>(response_size, 4);
        util::BufferWriter w(size);
        w.put_u32(id);
        w.put_zero(size - 4);
        conn.socket->send(w.data());
        conn.socket->push();
        ++served_;
    }
}

RpcClient::RpcClient(core::Host& host, util::Ipv4Address dst, std::uint16_t port,
                     RpcClientConfig config)
    : host_(host),
      dst_(dst),
      port_(port),
      config_(config),
      timer_(host.simulator(), [this] { issue_request(); }) {}

void RpcClient::start() {
    running_ = true;
    if (!config_.connection_per_request) {
        socket_ = host_.tcp().connect(dst_, port_, config_.tcp);
        socket_->on_data = [this](std::span<const std::uint8_t> data) {
            on_bytes(accum_, data);
        };
        socket_->on_connected = [this] { schedule_next(); };
    } else {
        schedule_next();
    }
}

void RpcClient::stop() {
    running_ = false;
    timer_.cancel();
    if (socket_) socket_->close();
}

void RpcClient::schedule_next() {
    if (!running_) return;
    timer_.schedule(
        sim::from_seconds(host_.rng().exponential(config_.mean_interarrival.seconds())));
}

void RpcClient::issue_request() {
    if (!running_) return;
    const std::uint32_t id = next_id_++;

    util::BufferWriter w(kRequestHeader + config_.request_extra_bytes);
    w.put_u32(id);
    w.put_u16(config_.response_bytes);
    w.put_zero(config_.request_extra_bytes);

    outstanding_[id] = host_.simulator().now();
    ++sent_;

    if (config_.connection_per_request) {
        // Fresh connection per transaction: pays the handshake every time.
        auto socket = host_.tcp().connect(dst_, port_, config_.tcp);
        transient_.push_back(socket);
        auto* raw = socket.get();
        auto request = w.take();
        socket->on_connected = [raw, request] {
            raw->send(request);
            raw->push();
        };
        // Each connection reassembles its own response: interleaved
        // segments from concurrent transients must not share a buffer.
        socket->on_data = [this, raw, accum = util::ByteBuffer{}](
                              std::span<const std::uint8_t> data) mutable {
            const auto before = received_;
            on_bytes(accum, data);
            if (received_ > before) raw->close();
        };
        socket->on_closed = [this, raw] {
            std::erase_if(transient_, [raw](const auto& s) { return s.get() == raw; });
        };
    } else if (socket_ && socket_->connected()) {
        socket_->send(w.data());
        socket_->push();
    }
    schedule_next();
}

void RpcClient::on_bytes(util::ByteBuffer& accum, std::span<const std::uint8_t> data) {
    accum.insert(accum.end(), data.begin(), data.end());
    // Responses are fixed-size (config_.response_bytes, min 4).
    const std::size_t size = std::max<std::size_t>(config_.response_bytes, 4);
    while (accum.size() >= size) {
        util::BufferReader r(accum);
        const std::uint32_t id = r.get_u32();
        accum.erase(accum.begin(), accum.begin() + static_cast<std::ptrdiff_t>(size));
        auto it = outstanding_.find(id);
        if (it != outstanding_.end()) {
            latencies_.add((host_.simulator().now() - it->second).millis());
            outstanding_.erase(it);
            ++received_;
        }
    }
}

}  // namespace catenet::app
