// TCP unit and behaviour tests: header codec, sequence arithmetic, the
// state machine (handshake, close, reset), reliability under loss (property
// sweep), adaptive retransmission, congestion control, Nagle, delayed ACK,
// zero-window persistence, MSS negotiation and repacketization, plus the
// packet-sequenced ARQ baseline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <unordered_map>

#include "core/internetwork.h"
#include "ip/protocols.h"
#include "link/presets.h"
#include "tcp/conn_table.h"
#include "tcp/sequence.h"
#include "tcp/simple_arq.h"
#include "tcp/tcp.h"
#include "tcp/tcp_header.h"
#include "util/checksum.h"

// Global allocation counter (same per-binary harness as test_sim.cc):
// counts every operator-new in this binary; the steady-state tests below
// measure deltas around windows that must never touch the allocator.
namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    ++g_heap_allocs;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// The nothrow forms must be overridden too: libstdc++'s temporary buffers
// (std::inplace_merge in RoutingTable::bulk_load) allocate with
// operator new(nothrow) but release through plain operator delete — if
// only the throwing forms route to malloc, the pairing splits across
// allocators (ASan flags the mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    ++g_heap_allocs;
    return std::malloc(size);
}

// GCC flags free() inside replaced operator delete as mismatched when it
// inlines both sides; the pairing here is malloc/free-consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace catenet::tcp {
namespace {

using util::Ipv4Address;

// --- sequence arithmetic ------------------------------------------------

TEST(Sequence, WrapsCorrectly) {
    EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
    EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
    EXPECT_TRUE(seq_leq(5u, 5u));
    EXPECT_FALSE(seq_lt(5u, 5u));
}

TEST(Sequence, WindowMembership) {
    EXPECT_TRUE(seq_in_window(10, 10, 5));
    EXPECT_TRUE(seq_in_window(14, 10, 5));
    EXPECT_FALSE(seq_in_window(15, 10, 5));
    EXPECT_FALSE(seq_in_window(9, 10, 5));
    EXPECT_FALSE(seq_in_window(10, 10, 0));
    EXPECT_TRUE(seq_in_window(2, 0xfffffffe, 10)) << "window spanning wrap";
}

// --- header codec ----------------------------------------------------------

TEST(TcpHeaderCodec, RoundTripWithMss) {
    TcpHeader h;
    h.src_port = 1234;
    h.dst_port = 80;
    h.seq = 0xdeadbeef;
    h.ack = 0xfeedface;
    h.flags.syn = true;
    h.flags.ack = true;
    h.window = 8192;
    h.mss = 1460;
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    const auto wire = encode_tcp(h, src, dst, {});
    EXPECT_EQ(wire.size(), kTcpHeaderSize + 4);

    std::span<const std::uint8_t> payload;
    const auto back = decode_tcp(src, dst, wire, payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->src_port, 1234);
    EXPECT_EQ(back->dst_port, 80);
    EXPECT_EQ(back->seq, 0xdeadbeefu);
    EXPECT_EQ(back->ack, 0xfeedfaceu);
    EXPECT_TRUE(back->flags.syn);
    EXPECT_TRUE(back->flags.ack);
    EXPECT_FALSE(back->flags.fin);
    EXPECT_EQ(back->window, 8192);
    ASSERT_TRUE(back->mss.has_value());
    EXPECT_EQ(*back->mss, 1460);
    EXPECT_TRUE(payload.empty());
}

TEST(TcpHeaderCodec, ChecksumCoversPayloadAndPseudoHeader) {
    TcpHeader h;
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    auto wire = encode_tcp(h, src, dst, util::ByteBuffer{1, 2, 3});
    std::span<const std::uint8_t> payload;
    EXPECT_TRUE(decode_tcp(src, dst, wire, payload).has_value());
    EXPECT_EQ(payload.size(), 3u);
    // Payload corruption must be caught.
    wire.back() ^= 0x01;
    EXPECT_FALSE(decode_tcp(src, dst, wire, payload).has_value());
    wire.back() ^= 0x01;
    // Spoofed source address must be caught by the pseudo-header.
    EXPECT_FALSE(decode_tcp(Ipv4Address(9, 9, 9, 9), dst, wire, payload).has_value());
}

TEST(TcpHeaderCodec, AllFlagsRoundTrip) {
    TcpHeader h;
    h.flags.fin = h.flags.syn = h.flags.rst = h.flags.psh = h.flags.ack = h.flags.urg = true;
    h.urgent_pointer = 99;
    const Ipv4Address src(1, 1, 1, 1), dst(2, 2, 2, 2);
    const auto wire = encode_tcp(h, src, dst, {});
    std::span<const std::uint8_t> payload;
    const auto back = decode_tcp(src, dst, wire, payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->flags.fin && back->flags.syn && back->flags.rst &&
                back->flags.psh && back->flags.ack && back->flags.urg);
    EXPECT_EQ(back->urgent_pointer, 99);
}

// --- codec byte identity ----------------------------------------------------
//
// The production encoder writes fields with direct stores; this reference
// builds the same segment through the definitional bounds-checked writer.
// The two must agree byte for byte on every header shape, or a peer
// implementation would see different wires.

util::ByteBuffer reference_encode(const TcpHeader& h, Ipv4Address src, Ipv4Address dst,
                                  std::span<const std::uint8_t> payload) {
    util::BufferWriter w;
    w.put_u16(h.src_port);
    w.put_u16(h.dst_port);
    w.put_u32(h.seq);
    w.put_u32(h.ack);
    const std::size_t header_len = kTcpHeaderSize + (h.mss ? 4 : 0);
    w.put_u8(static_cast<std::uint8_t>((header_len / 4) << 4));
    std::uint8_t flags = 0;
    if (h.flags.fin) flags |= 0x01;
    if (h.flags.syn) flags |= 0x02;
    if (h.flags.rst) flags |= 0x04;
    if (h.flags.psh) flags |= 0x08;
    if (h.flags.ack) flags |= 0x10;
    if (h.flags.urg) flags |= 0x20;
    w.put_u8(flags);
    w.put_u16(h.window);
    w.put_u16(0);  // checksum slot
    w.put_u16(h.urgent_pointer);
    if (h.mss) {
        w.put_u8(2);
        w.put_u8(4);
        w.put_u16(*h.mss);
    }
    for (const auto byte : payload) w.put_u8(byte);
    auto out = w.take();
    const auto sum = util::transport_checksum(src, dst, ip::kProtoTcp, out);
    out[16] = static_cast<std::uint8_t>(sum >> 8);
    out[17] = static_cast<std::uint8_t>(sum & 0xff);
    return out;
}

TEST(TcpHeaderCodec, DirectStoreEncoderMatchesReferenceByteForByte) {
    const Ipv4Address src(10, 1, 2, 3), dst(172, 16, 254, 9);
    util::Rng rng(2024);
    for (int trial = 0; trial < 64; ++trial) {
        TcpHeader h;
        h.src_port = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
        h.dst_port = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
        h.seq = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffu));
        h.ack = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffu));
        h.flags.fin = rng.chance(0.3);
        h.flags.syn = rng.chance(0.3);
        h.flags.rst = rng.chance(0.2);
        h.flags.psh = rng.chance(0.5);
        h.flags.ack = rng.chance(0.8);
        h.flags.urg = rng.chance(0.1);
        h.window = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
        h.urgent_pointer = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
        if (rng.chance(0.5)) h.mss = static_cast<std::uint16_t>(rng.uniform(1, 0xffff));

        // Odd and even payload lengths both matter: the checksum pass pads
        // odd tails.
        util::ByteBuffer payload(rng.uniform(0, 1461));
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(0, 255));

        const auto wire = encode_tcp(h, src, dst, payload);
        const auto ref = reference_encode(h, src, dst, payload);
        ASSERT_EQ(wire, ref) << "trial " << trial << " payload " << payload.size();

        std::span<const std::uint8_t> decoded_payload;
        const auto back = decode_tcp(src, dst, wire, decoded_payload);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(decoded_payload.size(), payload.size());
    }
}

TEST(TcpHeaderCodec, GatheringEncoderMatchesContiguousAtEverySplit) {
    // encode_tcp_segment takes the payload as two spans (a ring buffer's
    // wrap); wherever the seam lands, the bytes past the headroom must be
    // identical to the contiguous encoding.
    const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
    util::BufferPool pool(8);
    TcpHeader h;
    h.src_port = 4000;
    h.dst_port = 80;
    h.seq = 0x01020304;
    h.ack = 0x0a0b0c0d;
    h.flags.ack = true;
    h.flags.psh = true;
    h.window = 32768;

    util::ByteBuffer payload(537);  // odd length on purpose
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    const auto contiguous = encode_tcp(h, src, dst, payload);
    const std::span<const std::uint8_t> view(payload);
    constexpr std::size_t kHeadroom = 20;

    for (const std::size_t split :
         {std::size_t{0}, std::size_t{1}, std::size_t{268}, payload.size() - 1,
          payload.size()}) {
        auto wire = encode_tcp_segment(h, src, dst, view.first(split),
                                       view.subspan(split), kHeadroom, pool);
        ASSERT_EQ(wire.size(), kHeadroom + contiguous.size()) << "split " << split;
        EXPECT_TRUE(std::equal(wire.begin() + kHeadroom, wire.end(),
                               contiguous.begin(), contiguous.end()))
            << "split " << split;
        pool.recycle(std::move(wire));
    }
}

// Re-checksums a hand-mangled segment so it reaches the structural checks
// (decode_tcp validates the checksum before anything else).
void fix_checksum(util::ByteBuffer& seg, Ipv4Address src, Ipv4Address dst) {
    seg[16] = seg[17] = 0;
    const auto sum = util::transport_checksum(src, dst, ip::kProtoTcp, seg);
    seg[16] = static_cast<std::uint8_t>(sum >> 8);
    seg[17] = static_cast<std::uint8_t>(sum & 0xff);
}

TEST(TcpHeaderCodec, MalformedStructureThrowsNotCrashes) {
    const Ipv4Address src(1, 2, 3, 4), dst(5, 6, 7, 8);
    std::span<const std::uint8_t> payload;
    TcpHeader h;
    h.flags.ack = true;

    // Data offset below the fixed header (3 words).
    auto wire = encode_tcp(h, src, dst, {});
    wire[12] = 0x30;
    fix_checksum(wire, src, dst);
    EXPECT_THROW((void)decode_tcp(src, dst, wire, payload), util::DecodeError);

    // Data offset past the end of the segment.
    wire = encode_tcp(h, src, dst, {});
    wire[12] = 0xf0;  // 60-byte header claimed on a 20-byte segment
    fix_checksum(wire, src, dst);
    EXPECT_THROW((void)decode_tcp(src, dst, wire, payload), util::DecodeError);

    // Option kind with no room for its length byte.
    h.mss = 1460;
    wire = encode_tcp(h, src, dst, {});
    wire[20] = 1;  // NOP
    wire[21] = 1;  // NOP
    wire[22] = 1;  // NOP
    wire[23] = 2;  // MSS kind as the very last option byte: length truncated
    fix_checksum(wire, src, dst);
    EXPECT_THROW((void)decode_tcp(src, dst, wire, payload), util::DecodeError);

    // Option length smaller than the two mandatory bytes.
    wire = encode_tcp(h, src, dst, {});
    wire[21] = 1;
    fix_checksum(wire, src, dst);
    EXPECT_THROW((void)decode_tcp(src, dst, wire, payload), util::DecodeError);

    // Option length overrunning the header.
    wire = encode_tcp(h, src, dst, {});
    wire[21] = 40;
    fix_checksum(wire, src, dst);
    EXPECT_THROW((void)decode_tcp(src, dst, wire, payload), util::DecodeError);

    // NOP padding and end-of-options remain legal.
    wire = encode_tcp(h, src, dst, {});
    wire[20] = 1;
    wire[21] = 1;
    wire[22] = 0;
    wire[23] = 0;
    fix_checksum(wire, src, dst);
    const auto back = decode_tcp(src, dst, wire, payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->mss.has_value());
}

// --- connection table -------------------------------------------------------

TEST(ConnTable, InsertFindEraseBasics) {
    ConnTable<int> table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(1), nullptr);
    table.insert(make_conn_key(0x0a000001, 80, 49152), 7);
    table.insert(make_conn_key(0x0a000001, 80, 49153), 8);
    ASSERT_NE(table.find(make_conn_key(0x0a000001, 80, 49152)), nullptr);
    EXPECT_EQ(*table.find(make_conn_key(0x0a000001, 80, 49152)), 7);
    EXPECT_EQ(table.size(), 2u);
    table.insert(make_conn_key(0x0a000001, 80, 49152), 9);  // overwrite
    EXPECT_EQ(*table.find(make_conn_key(0x0a000001, 80, 49152)), 9);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_TRUE(table.erase(make_conn_key(0x0a000001, 80, 49152)));
    EXPECT_FALSE(table.erase(make_conn_key(0x0a000001, 80, 49152)));
    EXPECT_EQ(table.find(make_conn_key(0x0a000001, 80, 49152)), nullptr);
    EXPECT_EQ(*table.find(make_conn_key(0x0a000001, 80, 49153)), 8);
}

TEST(ConnTable, KeyPackingKeepsLanesDistinct) {
    const auto k = make_conn_key(0xc0a80001, 0x1234, 0x5678);
    EXPECT_EQ(conn_key_local_port(k), 0x5678);
    EXPECT_NE(make_conn_key(0xc0a80001, 0x1234, 0x5679), k);
    EXPECT_NE(make_conn_key(0xc0a80001, 0x1235, 0x5678), k);
    EXPECT_NE(make_conn_key(0xc0a80002, 0x1234, 0x5678), k);
}

TEST(ConnTable, ChurnMatchesReferenceMap) {
    // Randomized insert/erase/find storm over a deliberately small key pool
    // (forces collisions and long probe chains) checked against
    // std::unordered_map. Backward-shift deletion bugs show up here as
    // lookups that die early at a hole.
    ConnTable<std::uint64_t> table;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    util::Rng rng(5150);
    for (int op = 0; op < 20000; ++op) {
        const auto key = make_conn_key(0x0a000000 + rng.uniform(0, 7),
                                       static_cast<std::uint16_t>(rng.uniform(0, 3)),
                                       static_cast<std::uint16_t>(rng.uniform(0, 31)));
        const auto roll = rng.uniform(0, 99);
        if (roll < 45) {
            const std::uint64_t value = op;
            table.insert(key, value);
            reference[key] = value;
        } else if (roll < 75) {
            EXPECT_EQ(table.erase(key), reference.erase(key) > 0) << "op " << op;
        } else {
            auto* found = table.find(key);
            auto it = reference.find(key);
            ASSERT_EQ(found != nullptr, it != reference.end()) << "op " << op;
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second);
            }
        }
        ASSERT_EQ(table.size(), reference.size());
    }
    // Every survivor is visible to iteration, once.
    std::size_t visited = 0;
    table.for_each([&](std::uint64_t key, const std::uint64_t& value) {
        ++visited;
        auto it = reference.find(key);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, reference.size());
}

TEST(ConnTable, GrowthPreservesEveryEntry) {
    ConnTable<std::size_t> table;
    constexpr std::size_t kCount = 1000;  // forces many doublings from 16
    for (std::size_t i = 0; i < kCount; ++i) {
        table.insert(make_conn_key(static_cast<std::uint32_t>(i * 2654435761u),
                                   static_cast<std::uint16_t>(i), 80),
                     i);
    }
    EXPECT_EQ(table.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        auto* v = table.find(make_conn_key(static_cast<std::uint32_t>(i * 2654435761u),
                                           static_cast<std::uint16_t>(i), 80));
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, i);
    }
    EXPECT_TRUE(table.any_of(
        [](std::uint64_t, const std::size_t& v) { return v == kCount - 1; }));
    EXPECT_FALSE(
        table.any_of([](std::uint64_t, const std::size_t& v) { return v == kCount; }));
}

// --- behaviour fixture --------------------------------------------------------

struct TcpPair : ::testing::Test {
    core::Internetwork net{21};
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");

    void wire(const link::LinkParams& params = link::presets::ethernet_hop()) {
        net.connect(a, b, params);
        net.use_static_routes();
    }

    // Collects everything the server receives; echoes nothing.
    struct Server {
        std::shared_ptr<TcpSocket> socket;
        util::ByteBuffer received;
        bool remote_closed = false;
        bool closed = false;
        int accepted = 0;
    };

    Server serve(std::uint16_t port, const TcpConfig& config = {}) {
        auto server = std::make_shared<Server>();
        b.tcp().listen(
            port,
            [server](std::shared_ptr<TcpSocket> s) {
                ++server->accepted;
                server->socket = s;
                // Socket callbacks capture the Server raw: a strong capture
                // would cycle (socket -> callback -> Server -> socket) and
                // leak both. servers_ keeps the Server alive.
                Server* srv = server.get();
                s->on_data = [srv](std::span<const std::uint8_t> data) {
                    srv->received.insert(srv->received.end(), data.begin(),
                                         data.end());
                };
                s->on_remote_close = [srv] {
                    srv->remote_closed = true;
                    srv->socket->close();
                };
                s->on_closed = [srv] { srv->closed = true; };
            },
            config);
        servers_.push_back(server);
        return *server;  // snapshot view; use servers_.back() for live state
    }

    std::shared_ptr<Server> last_server() { return servers_.back(); }
    std::vector<std::shared_ptr<Server>> servers_;
};

TEST_F(TcpPair, ThreeWayHandshake) {
    wire();
    serve(80);
    bool connected = false;
    auto client = a.tcp().connect(b.address(), 80);
    client->on_connected = [&] { connected = true; };
    net.run_for(sim::seconds(1));
    EXPECT_TRUE(connected);
    EXPECT_EQ(client->state(), TcpState::Established);
    EXPECT_EQ(last_server()->socket->state(), TcpState::Established);
    EXPECT_EQ(b.tcp().stats().connections_accepted, 1u);
}

TEST_F(TcpPair, DataTransferBothDirections) {
    wire();
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    util::ByteBuffer client_received;
    client->on_data = [&](std::span<const std::uint8_t> d) {
        client_received.insert(client_received.end(), d.begin(), d.end());
    };
    client->on_connected = [&] {
        client->send(util::buffer_from_string("hello from a"));
        client->push();
    };
    net.run_for(sim::seconds(1));
    ASSERT_TRUE(last_server()->socket);
    last_server()->socket->send(util::buffer_from_string("hello from b"));
    last_server()->socket->push();
    net.run_for(sim::seconds(1));
    EXPECT_EQ(util::string_from_buffer(last_server()->received), "hello from a");
    EXPECT_EQ(util::string_from_buffer(client_received), "hello from b");
}

TEST_F(TcpPair, DataQueuedInSynReceivedIsSentOnceEstablished) {
    // A server that writes from its accept handler queues the bytes in
    // SYN-RECEIVED, where nothing may be sent yet. The ACK that completes
    // the handshake moves neither the acknowledgment nor the window past
    // what the SYN exchange set, and it must still release them.
    wire();
    b.tcp().listen(80, [](std::shared_ptr<TcpSocket> s) {
        s->send(util::buffer_from_string("greeting"));
    });
    auto client = a.tcp().connect(b.address(), 80);
    util::ByteBuffer client_received;
    client->on_data = [&](std::span<const std::uint8_t> d) {
        client_received.insert(client_received.end(), d.begin(), d.end());
    };
    net.run_for(sim::seconds(1));
    EXPECT_EQ(util::string_from_buffer(client_received), "greeting");
}

TEST_F(TcpPair, GracefulCloseRunsFullSequence) {
    wire();
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    bool client_closed = false;
    client->on_connected = [&] {
        client->send(util::buffer_from_string("bye"));
        client->close();
    };
    client->on_closed = [&] { client_closed = true; };
    net.run_for(sim::seconds(5));
    EXPECT_TRUE(last_server()->remote_closed);
    EXPECT_TRUE(last_server()->closed);
    // Client entered TIME-WAIT; after 2MSL it fully closes.
    net.run_for(sim::seconds(70));
    EXPECT_TRUE(client_closed);
    EXPECT_EQ(a.tcp().connection_count(), 0u);
    EXPECT_EQ(b.tcp().connection_count(), 0u);
}

TEST_F(TcpPair, ConnectToClosedPortIsReset) {
    wire();
    auto client = a.tcp().connect(b.address(), 4444);
    bool reset = false;
    client->on_reset = [&] { reset = true; };
    net.run_for(sim::seconds(2));
    EXPECT_TRUE(reset);
    EXPECT_EQ(b.tcp().stats().resets_sent, 1u);
    EXPECT_EQ(a.tcp().connection_count(), 0u);
}

TEST_F(TcpPair, AbortSendsRst) {
    wire();
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    client->on_connected = [&] { client->abort(); };
    net.run_for(sim::seconds(1));
    EXPECT_EQ(last_server()->socket->state(), TcpState::Closed);
    EXPECT_EQ(b.tcp().connection_count(), 0u);
}

TEST_F(TcpPair, MssNegotiatedFromSmallerMtu) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.mtu = 576;
    wire(params);
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    bool connected = false;
    client->on_connected = [&] { connected = true; };
    net.run_for(sim::seconds(1));
    ASSERT_TRUE(connected);
    // Neither side may emit a segment needing IP fragmentation.
    client->send(util::ByteBuffer(5000, 0x42));
    net.run_for(sim::seconds(5));
    EXPECT_EQ(a.ip().stats().fragments_created, 0u)
        << "MSS negotiation must prevent fragmentation on the direct link";
    EXPECT_EQ(last_server()->received.size(), 5000u);
}

TEST_F(TcpPair, SendBufferBackpressure) {
    wire(link::presets::slow_serial());  // 1200 bit/s: buffer must fill
    serve(80);
    TcpConfig config;
    config.send_buffer = 2048;
    auto client = a.tcp().connect(b.address(), 80, config);
    std::size_t accepted_total = 0;
    bool saw_backpressure = false;
    client->on_connected = [&] {
        util::ByteBuffer big(8192, 0x55);
        accepted_total = client->send(big);
        if (accepted_total < big.size()) saw_backpressure = true;
    };
    net.run_for(sim::seconds(2));
    EXPECT_TRUE(saw_backpressure);
    EXPECT_LE(accepted_total, 2048u);
}

TEST_F(TcpPair, OnSendSpaceFiresWhenBufferDrains) {
    wire();
    serve(80);
    TcpConfig config;
    config.send_buffer = 1024;
    auto client = a.tcp().connect(b.address(), 80, config);
    int space_events = 0;
    std::size_t total_sent = 0;
    client->on_send_space = [&] {
        ++space_events;
        total_sent += client->send(util::ByteBuffer(1024, 1));
    };
    client->on_connected = [&] { total_sent += client->send(util::ByteBuffer(2048, 1)); };
    net.run_for(sim::seconds(2));
    EXPECT_GT(space_events, 0);
    EXPECT_GT(total_sent, 1024u);
}

TEST_F(TcpPair, ZeroWindowEngagesPersistProbes) {
    wire();
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    client->on_connected = [&] {
        last_server()->socket->set_receive_open(false);  // slam the window shut
        client->send(util::ByteBuffer(4096, 0x77));
    };
    net.run_for(sim::seconds(10));
    EXPECT_LT(last_server()->received.size(), 4096u)
        << "closed window must throttle the sender";
    // Reopen: transfer completes via the window update / probes.
    last_server()->socket->set_receive_open(true);
    net.run_for(sim::seconds(20));
    EXPECT_EQ(last_server()->received.size(), 4096u);
}

TEST_F(TcpPair, NagleCoalescesSmallWrites) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(20);
    wire(params);
    serve(80);

    TcpConfig nagle_on;
    nagle_on.nagle = true;
    auto client = a.tcp().connect(b.address(), 80, nagle_on);
    client->on_connected = [&] {
        // 100 one-byte writes back to back.
        for (int i = 0; i < 100; ++i) {
            const std::uint8_t byte = 'x';
            client->send(std::span<const std::uint8_t>(&byte, 1));
        }
    };
    net.run_for(sim::seconds(5));
    EXPECT_EQ(last_server()->received.size(), 100u);
    const auto coalesced = client->stats().segments_sent;

    // Same workload without Nagle on a second connection.
    TcpConfig nagle_off = nagle_on;
    nagle_off.nagle = false;
    auto client2 = a.tcp().connect(b.address(), 80, nagle_off);
    client2->on_connected = [&] {
        for (int i = 0; i < 100; ++i) {
            const std::uint8_t byte = 'y';
            client2->send(std::span<const std::uint8_t>(&byte, 1));
        }
    };
    net.run_for(sim::seconds(5));
    EXPECT_GT(client2->stats().segments_sent, coalesced * 3)
        << "Nagle must drastically reduce tinygram count";
}

TEST_F(TcpPair, DelayedAckReducesAckTraffic) {
    wire();
    serve(80);
    TcpConfig cfg;
    cfg.delayed_ack = true;
    auto client = a.tcp().connect(b.address(), 80, cfg);
    client->on_connected = [&] { client->send(util::ByteBuffer(32 * 1024, 3)); };
    net.run_for(sim::seconds(5));
    const auto acks_with_delay = last_server()->socket->stats().segments_sent;
    EXPECT_EQ(last_server()->received.size(), 32u * 1024u);
    // Roughly: >= 2 data segments per ack -> acks < segments received.
    EXPECT_LT(acks_with_delay, client->stats().segments_sent);
}

TEST_F(TcpPair, RttEstimateTracksPathDelay) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(50);  // 100ms RTT
    wire(params);
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    client->on_connected = [&] { client->send(util::ByteBuffer(64 * 1024, 1)); };
    net.run_for(sim::seconds(10));
    const auto& stats = client->stats();
    EXPECT_GT(stats.srtt_ms, 80.0);
    EXPECT_LT(stats.srtt_ms, 300.0);
    EXPECT_GE(stats.rto_ms, stats.srtt_ms);
}

TEST_F(TcpPair, RepeatedTimeoutsResetTheConnection) {
    wire();
    serve(80);
    TcpConfig cfg;
    cfg.max_retries = 3;
    cfg.initial_rto = sim::milliseconds(100);
    auto client = a.tcp().connect(b.address(), 80, cfg);
    bool reset = false;
    client->on_reset = [&] { reset = true; };
    client->on_connected = [&] {
        client->send(util::ByteBuffer(1000, 1));
        net.link(0).set_up(false);  // cut the cable mid-conversation
    };
    net.run_for(sim::seconds(60));
    EXPECT_TRUE(reset) << "sender must give up after max_retries";
}

TEST_F(TcpPair, SimultaneousOpenConnects) {
    wire();
    // Both sides actively connect to each other's ephemeral port — drive
    // via direct connect to listener-less ports won't meet; instead test
    // the SynSent -> SynReceived path with crossing SYNs using two
    // listeners and simultaneous connects between fixed ports is not
    // supported by the API; so approximate: A connects while B's SYN to A
    // crosses. Covered behaviourally: both connects to each other's
    // listeners at the same instant succeed independently.
    serve(80);
    a.tcp().listen(81, [](std::shared_ptr<TcpSocket>) {});
    auto c1 = a.tcp().connect(b.address(), 80);
    auto c2 = b.tcp().connect(a.address(), 81);
    int connected = 0;
    c1->on_connected = [&] { ++connected; };
    c2->on_connected = [&] { ++connected; };
    net.run_for(sim::seconds(2));
    EXPECT_EQ(connected, 2);
}

TEST_F(TcpPair, CongestionWindowGrowsFromOneMss) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(20);
    wire(params);
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    client->on_connected = [&] { client->send(util::ByteBuffer(60000, 9)); };
    // Shortly after connect, cwnd must still be small (slow start ramp).
    net.run_for(sim::milliseconds(120));
    EXPECT_LT(client->stats().cwnd_bytes, 20000u);
    net.run_for(sim::seconds(10));
    EXPECT_EQ(last_server()->received.size(), 60000u);
    EXPECT_GT(client->stats().cwnd_bytes, 10000u);
}

// --- reliability property sweep -------------------------------------------------

struct LossParam {
    double loss;
    std::uint64_t seed;
};

class TcpLossProperty : public ::testing::TestWithParam<LossParam> {};

TEST_P(TcpLossProperty, ExactDeliveryUnderLoss) {
    core::Internetwork net(GetParam().seed);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = GetParam().loss;
    net.connect(a, b, params);
    net.use_static_routes();

    constexpr std::size_t kBytes = 64 * 1024;
    util::ByteBuffer received;
    bool remote_closed = false;
    std::shared_ptr<TcpSocket> server_socket;
    b.tcp().listen(80, [&](std::shared_ptr<TcpSocket> s) {
        server_socket = s;
        s->on_data = [&](std::span<const std::uint8_t> d) {
            received.insert(received.end(), d.begin(), d.end());
        };
        s->on_remote_close = [&] { remote_closed = true; };
    });

    auto client = a.tcp().connect(b.address(), 80);
    std::size_t queued = 0;
    auto pump = [&] {
        util::ByteBuffer chunk(2048);
        while (queued < kBytes) {
            const std::size_t want = std::min(chunk.size(), kBytes - queued);
            for (std::size_t i = 0; i < want; ++i) {
                chunk[i] = static_cast<std::uint8_t>((queued + i) * 13 + 5);
            }
            const auto accepted =
                client->send(std::span<const std::uint8_t>(chunk.data(), want));
            queued += accepted;
            if (accepted < want) break;
        }
        if (queued >= kBytes) client->close();
    };
    client->on_connected = pump;
    client->on_send_space = pump;
    net.run_for(sim::seconds(600));

    ASSERT_EQ(received.size(), kBytes) << "loss=" << GetParam().loss;
    for (std::size_t i = 0; i < kBytes; ++i) {
        ASSERT_EQ(received[i], static_cast<std::uint8_t>(i * 13 + 5))
            << "corruption at offset " << i;
    }
    EXPECT_TRUE(remote_closed);
    if (GetParam().loss > 0.0) {
        EXPECT_GT(client->stats().retransmitted_segments, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, TcpLossProperty,
    ::testing::Values(LossParam{0.0, 1}, LossParam{0.01, 2}, LossParam{0.05, 3},
                      LossParam{0.10, 4}, LossParam{0.20, 5}, LossParam{0.05, 6},
                      LossParam{0.05, 7}, LossParam{0.30, 8}));

// Corruption property: checksums must turn bit errors into loss, never
// into delivered garbage.
class TcpCorruptionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpCorruptionProperty, CorruptionNeverReachesTheApplication) {
    core::Internetwork net(GetParam());
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    link::LinkParams params = link::presets::ethernet_hop();
    params.bit_error_rate = 5e-6;
    net.connect(a, b, params);
    net.use_static_routes();

    constexpr std::size_t kBytes = 32 * 1024;
    util::ByteBuffer received;
    b.tcp().listen(80, [&](std::shared_ptr<TcpSocket> s) {
        // No self-capture: the stack keeps the accepted socket alive while
        // it can deliver; a strong capture here would leak it via a cycle.
        s->on_data = [&received](std::span<const std::uint8_t> d) {
            received.insert(received.end(), d.begin(), d.end());
        };
    });
    auto client = a.tcp().connect(b.address(), 80);
    std::size_t queued = 0;
    auto pump = [&] {
        util::ByteBuffer chunk(2048);
        while (queued < kBytes) {
            const std::size_t want = std::min(chunk.size(), kBytes - queued);
            for (std::size_t i = 0; i < want; ++i) {
                chunk[i] = static_cast<std::uint8_t>((queued + i) & 0xff);
            }
            const auto accepted =
                client->send(std::span<const std::uint8_t>(chunk.data(), want));
            queued += accepted;
            if (accepted < want) break;
        }
    };
    client->on_connected = pump;
    client->on_send_space = pump;
    net.run_for(sim::seconds(600));

    ASSERT_EQ(received.size(), kBytes);
    for (std::size_t i = 0; i < kBytes; ++i) {
        ASSERT_EQ(received[i], static_cast<std::uint8_t>(i & 0xff));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpCorruptionProperty, ::testing::Values(31, 32, 33, 34));

// --- ablation switches -------------------------------------------------------------

TEST_F(TcpPair, FixedRtoModeUsesConfiguredTimeout) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.2;
    wire(params);
    serve(80);
    TcpConfig naive;
    naive.adaptive_rto = false;
    naive.fixed_rto = sim::milliseconds(500);
    naive.congestion_control = false;
    naive.fast_retransmit = false;
    auto client = a.tcp().connect(b.address(), 80, naive);
    client->on_connected = [&] { client->send(util::ByteBuffer(16 * 1024, 1)); };
    net.run_for(sim::seconds(120));
    EXPECT_EQ(last_server()->received.size(), 16u * 1024u)
        << "even the naive configuration must eventually deliver";
    EXPECT_GT(client->stats().timeouts, 0u);
    EXPECT_NEAR(client->stats().rto_ms, 500.0, 1.0);
}

TEST_F(TcpPair, FastRetransmitRecoversViaDuplicateAcks) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(10);
    params.drop_probability = 0.005;  // rare single losses inside big windows
    wire(params);
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    constexpr std::size_t kBytes = 512 * 1024;
    std::size_t queued = 0;
    auto pump = [&] {
        util::ByteBuffer chunk(4096, 1);
        while (queued < kBytes) {
            const auto accepted = client->send(chunk);
            queued += accepted;
            if (accepted < chunk.size()) break;
        }
    };
    client->on_connected = pump;
    client->on_send_space = pump;
    net.run_for(sim::seconds(120));
    EXPECT_GE(last_server()->received.size(), kBytes);
    EXPECT_GT(client->stats().duplicate_acks_received, 0u);
    EXPECT_GT(client->stats().fast_retransmits, 0u)
        << "isolated losses in large windows should recover via dup acks";
}

// --- repacketization (byte sequencing) ---------------------------------------------

TEST_F(TcpPair, RetransmissionRepacketizesAtCurrentMss) {
    // Force many small segments into flight (Nagle off), then cut the link
    // so everything must be retransmitted; after the RTO rewind the bytes
    // go out repacked at full MSS — fewer, larger segments.
    link::LinkParams params = link::presets::ethernet_hop();
    params.propagation_delay = sim::milliseconds(30);
    wire(params);
    serve(80);
    TcpConfig cfg;
    cfg.nagle = false;
    cfg.initial_rto = sim::milliseconds(200);
    auto client = a.tcp().connect(b.address(), 80, cfg);
    client->on_connected = [&] {
        for (int i = 0; i < 40; ++i) {
            client->send(util::ByteBuffer(100, static_cast<std::uint8_t>(i)));
        }
    };
    // Let the small segments leave, then cut the link before acks return.
    net.run_for(sim::milliseconds(145));
    net.link(0).set_up(false);
    net.run_for(sim::milliseconds(100));
    net.link(0).set_up(true);
    net.run_for(sim::seconds(30));
    EXPECT_EQ(last_server()->received.size(), 4000u);
    const auto& st = client->stats();
    EXPECT_GT(st.retransmitted_segments, 0u);
    // Repacketization: retransmitted bytes exceed retransmitted segments *
    // 100, i.e. retransmissions carried more than the original tinygrams.
    EXPECT_GT(st.retransmitted_bytes, st.retransmitted_segments * 100)
        << "byte sequencing must coalesce retransmissions";
}

// --- loss recovery -------------------------------------------------------------------

TEST_F(TcpPair, LossyBulkTransferCompletesThroughReassembly) {
    // With loss in play every repair mechanism runs (dup ACKs, rewinds,
    // reassembly) without corrupting the stream, and the transfer still
    // completes exactly.
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.05;
    wire(params);
    serve(80);
    auto client = a.tcp().connect(b.address(), 80);
    constexpr std::size_t kBytes = 48 * 1024;
    client->on_connected = [&] { client->send(util::ByteBuffer(kBytes, 0x17)); };
    net.run_for(sim::seconds(60));
    ASSERT_EQ(last_server()->received.size(), kBytes);
    EXPECT_GT(last_server()->socket->stats().out_of_order_segments, 0u);
}

// --- steady-state allocation freedom ---------------------------------------------------

TEST(TcpAllocation, TimerChurnReschedulesWithoutAllocating) {
    // A request/response ping-pong exercises the timer hot path on every
    // leg: RTO re-arm (in-place reschedule), delayed-ACK arm
    // (schedule_if_idle) and its lazy no-op fire. After warm-up none of it
    // may touch the heap.
    core::Internetwork net(77);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    net.connect(a, b, link::presets::ethernet_hop());
    net.use_static_routes();

    std::shared_ptr<TcpSocket> server;
    b.tcp().listen(80, [&](std::shared_ptr<TcpSocket> s) {
        server = s;
        s->on_data = [&](std::span<const std::uint8_t> d) { server->send(d); };
    });
    util::ByteBuffer ball(512, 0x42);
    std::uint64_t rounds = 0;
    auto client = a.tcp().connect(b.address(), 80);
    client->on_data = [&](std::span<const std::uint8_t>) {
        ++rounds;
        client->send(ball);
    };
    client->on_connected = [&] { client->send(ball); };

    net.run_for(sim::seconds(3));
    ASSERT_GT(rounds, 100u);
    const auto rounds_before = rounds;
    const std::uint64_t before = g_heap_allocs;
    net.run_for(sim::seconds(3));
    EXPECT_GT(rounds, rounds_before + 100);
    EXPECT_EQ(g_heap_allocs - before, 0u)
        << "timer churn on the established path must not allocate";
}

TEST(TcpAllocation, EstablishedBulkTransferOverFourHopsIsAllocationFree) {
    // The acceptance bar for the data-path rebuild: an Established bulk
    // transfer across four store-and-forward hops runs with zero heap
    // allocations per segment once rings, pools and caches are warm —
    // sender segmentation, gateway forwarding, receiver delivery, ACK
    // return, congestion bookkeeping, all of it.
    core::Internetwork net(88);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Node* prev = &a;
    for (int i = 0; i < 3; ++i) {
        core::Gateway& gw = net.add_gateway("g" + std::to_string(i));
        net.connect(*prev, gw, link::presets::ethernet_hop());
        prev = &gw;
    }
    net.connect(*prev, b, link::presets::ethernet_hop());
    net.use_static_routes();

    std::size_t received = 0;
    std::shared_ptr<TcpSocket> server;
    b.tcp().listen(80, [&](std::shared_ptr<TcpSocket> s) {
        server = s;
        s->on_data = [&](std::span<const std::uint8_t> d) { received += d.size(); };
    });
    auto client = a.tcp().connect(b.address(), 80);
    util::ByteBuffer chunk(16 * 1024, 0x5a);
    auto pump = [&] {
        while (client->send(chunk) == chunk.size()) {
        }
    };
    client->on_connected = pump;
    client->on_send_space = pump;

    net.run_for(sim::seconds(3));  // handshake, slow start, pools warming
    ASSERT_GT(received, std::size_t{100} * 1024);
    const auto received_before = received;
    const std::uint64_t before = g_heap_allocs;
    net.run_for(sim::seconds(3));
    EXPECT_GT(received, received_before + std::size_t{100} * 1024);
    EXPECT_EQ(g_heap_allocs - before, 0u)
        << "heap allocations on the steady-state TCP data path";
}

TEST(TcpAllocation, ReorderingRecoveryReusesPooledBuffers) {
    // Sustained loss keeps the receiver's reassembly queue busy: every hole
    // parks segments out of order. The queue's entries live in a vector
    // reserved at connection setup and its payloads in pool buffers, so
    // once warm even a reordering-heavy steady state allocates nothing.
    core::Internetwork net(99);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.02;
    net.connect(a, b, params);
    net.use_static_routes();

    std::size_t received = 0;
    std::shared_ptr<TcpSocket> server;
    b.tcp().listen(80, [&](std::shared_ptr<TcpSocket> s) {
        server = s;
        s->on_data = [&](std::span<const std::uint8_t> d) { received += d.size(); };
    });
    auto client = a.tcp().connect(b.address(), 80);
    util::ByteBuffer chunk(16 * 1024, 0x3c);
    auto pump = [&] {
        while (client->send(chunk) == chunk.size()) {
        }
    };
    client->on_connected = pump;
    client->on_send_space = pump;

    net.run_for(sim::seconds(10));
    ASSERT_GT(received, std::size_t{100} * 1024);
    ASSERT_GT(server->stats().out_of_order_segments, 10u)
        << "the loss rate must actually exercise reassembly";
    const auto ooo_before = server->stats().out_of_order_segments;
    const std::uint64_t before = g_heap_allocs;
    net.run_for(sim::seconds(10));
    EXPECT_GT(server->stats().out_of_order_segments, ooo_before)
        << "reordering must continue during the measured window";
    EXPECT_EQ(g_heap_allocs - before, 0u)
        << "reassembly churn must recycle, not allocate";
}

// --- ARQ baseline transport ----------------------------------------------------------

struct ArqPair : ::testing::Test {
    core::Internetwork net{41};
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");

    void wire(const link::LinkParams& params = link::presets::ethernet_hop()) {
        net.connect(a, b, params);
        net.use_static_routes();
    }
};

TEST_F(ArqPair, DeliversInOrder) {
    wire();
    util::ByteBuffer received;
    b.arq().listen(9, [&](Ipv4Address, std::uint16_t, std::span<const std::uint8_t> d) {
        received.insert(received.end(), d.begin(), d.end());
    });
    auto sender = a.arq().create_sender(b.address(), 9);
    util::ByteBuffer data(5000);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i & 0xff);
    }
    sender->send(data);
    sender->flush();
    net.run_for(sim::seconds(10));
    EXPECT_EQ(received, data);
}

TEST_F(ArqPair, RecoversFromLossViaGoBackN) {
    link::LinkParams params = link::presets::ethernet_hop();
    params.drop_probability = 0.1;
    wire(params);
    util::ByteBuffer received;
    b.arq().listen(9, [&](Ipv4Address, std::uint16_t, std::span<const std::uint8_t> d) {
        received.insert(received.end(), d.begin(), d.end());
    });
    ArqConfig cfg;
    cfg.rto = sim::milliseconds(300);
    auto sender = a.arq().create_sender(b.address(), 9, cfg);
    util::ByteBuffer data(20000, 0x5a);
    sender->send(data);
    sender->flush();
    net.run_for(sim::seconds(120));
    EXPECT_EQ(received.size(), data.size());
    EXPECT_GT(sender->stats().packets_retransmitted, 0u);
}

TEST_F(ArqPair, FixedPacketizationNeverCoalesces) {
    wire();
    b.arq().listen(9, [](Ipv4Address, std::uint16_t, std::span<const std::uint8_t>) {});
    ArqConfig cfg;
    cfg.packet_payload = 100;
    auto sender = a.arq().create_sender(b.address(), 9, cfg);
    sender->send(util::ByteBuffer(1000, 1));
    net.run_for(sim::seconds(5));
    EXPECT_EQ(sender->stats().packets_sent, 10u)
        << "1000 bytes at a 100-byte quantum = exactly 10 packets";
}

}  // namespace
}  // namespace catenet::tcp
