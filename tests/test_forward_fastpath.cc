// The zero-copy forwarding fast path: RFC 1624 incremental checksum
// equivalence, byte-identity of the in-place TTL rewrite against full
// re-serialization, allocation-freedom of the N-hop forward loop over
// point-to-point links and across Ethernet LANs (broadcast included),
// trains of back-to-back datagrams through one gateway (TTL expiry, malformed
// frames and route changes inside a train, a carrier cut with packets in
// flight), the soft-state destination cache's invalidation-by-generation
// discipline, and LinkParams' serialization math and input validation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/internetwork.h"
#include "ip/ipv4_header.h"
#include "ip/protocols.h"
#include "ip/routing_table.h"
#include "link/lan.h"
#include "link/point_to_point.h"
#include "link/presets.h"
#include "util/buffer_pool.h"
#include "util/checksum.h"

// Global allocation counter (same per-binary harness as test_sim.cc):
// counts every operator-new in this binary; tests measure deltas around
// loops that must never touch the allocator.
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

namespace catenet {
namespace {

using util::checksum_update_u16;
using util::internet_checksum;

// Full RFC 1071 recompute of a header whose checksum field (bytes 10-11)
// is in place: zero the field, sum, restore nothing (caller owns copy).
std::uint16_t full_recompute(std::vector<std::uint8_t> header) {
    header[10] = 0;
    header[11] = 0;
    return internet_checksum(header);
}

std::uint16_t word_at(const std::vector<std::uint8_t>& b, std::size_t off) {
    return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

void set_word(std::vector<std::uint8_t>& b, std::size_t off, std::uint16_t v) {
    b[off] = static_cast<std::uint8_t>(v >> 8);
    b[off + 1] = static_cast<std::uint8_t>(v & 0xff);
}

// --- RFC 1624 equivalence ----------------------------------------------

TEST(ChecksumUpdate, MatchesFullRecomputeOnRandomHeaders) {
    std::mt19937 rng(0xc1a88u);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int trial = 0; trial < 5000; ++trial) {
        std::vector<std::uint8_t> hdr(20);
        for (auto& b : hdr) b = static_cast<std::uint8_t>(byte(rng));
        hdr[0] = 0x45;  // a real header's version/IHL byte: sum never 0
        set_word(hdr, 10, full_recompute(hdr));

        // Change one random 16-bit word (not the checksum's own word).
        std::size_t off = (static_cast<std::size_t>(byte(rng)) % 10) * 2;
        if (off == 10) off = 8;
        const std::uint16_t old_word = word_at(hdr, off);
        const std::uint16_t new_word =
            static_cast<std::uint16_t>((byte(rng) << 8) | byte(rng));

        const std::uint16_t incremental =
            checksum_update_u16(word_at(hdr, 10), old_word, new_word);
        set_word(hdr, off, new_word);
        EXPECT_EQ(incremental, full_recompute(hdr))
            << "trial " << trial << " offset " << off << " old " << old_word
            << " new " << new_word;
    }
}

TEST(ChecksumUpdate, EdgeWordsZeroAndAllOnes) {
    // The 0x0000 / 0xffff representations are where naive incremental
    // updates (RFC 1141 eqn 2) historically diverged; sweep all edge
    // combinations of the changing word on real-shaped headers.
    std::mt19937 rng(7u);
    std::uniform_int_distribution<int> byte(0, 255);
    const std::uint16_t edges[] = {0x0000, 0xffff, 0x0001, 0xfffe, 0x1234};
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> hdr(20);
        for (auto& b : hdr) b = static_cast<std::uint8_t>(byte(rng));
        hdr[0] = 0x45;
        for (std::uint16_t old_word : edges) {
            for (std::uint16_t new_word : edges) {
                set_word(hdr, 8, old_word);
                set_word(hdr, 10, full_recompute(hdr));
                const std::uint16_t incremental =
                    checksum_update_u16(word_at(hdr, 10), old_word, new_word);
                auto changed = hdr;
                set_word(changed, 8, new_word);
                EXPECT_EQ(incremental, full_recompute(changed))
                    << old_word << " -> " << new_word;
            }
        }
    }
}

TEST(ChecksumUpdate, HeaderDrivenToChecksumZeroStillMatches) {
    // Scan identification values until the header checksum itself lands on
    // the 0x0000 representation, then check the TTL-decrement update there.
    ip::Ipv4Header h;
    h.ttl = 64;
    h.protocol = 17;
    h.src = util::Ipv4Address::parse("10.1.0.1");
    h.dst = util::Ipv4Address::parse("10.2.0.2");
    bool found = false;
    for (std::uint32_t id = 0; id <= 0xffff; ++id) {
        h.identification = static_cast<std::uint16_t>(id);
        auto wire = ip::encode_datagram(h, {});
        if (word_at(wire, 10) != 0x0000) continue;
        found = true;
        ip::Ipv4Header dec = h;
        dec.ttl = 63;
        EXPECT_EQ(ip::encode_datagram(dec, {}),
                  [&] { auto w = wire; ip::decrement_ttl(w); return w; }());
        break;
    }
    EXPECT_TRUE(found) << "no identification produced checksum 0x0000";
}

// --- byte identity of the in-place rewrite ------------------------------

TEST(FastPath, DecrementTtlMatchesReserialization) {
    std::mt19937 rng(0x1624u);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> len(0, 512);
    for (int trial = 0; trial < 2000; ++trial) {
        ip::Ipv4Header h;
        h.tos = static_cast<std::uint8_t>(byte(rng));
        h.identification = static_cast<std::uint16_t>((byte(rng) << 8) | byte(rng));
        h.dont_fragment = (trial % 2) == 0;
        h.ttl = static_cast<std::uint8_t>(2 + byte(rng) % 254);
        h.protocol = static_cast<std::uint8_t>(byte(rng));
        h.src = util::Ipv4Address(static_cast<std::uint32_t>(rng()));
        h.dst = util::Ipv4Address(static_cast<std::uint32_t>(rng()));
        std::vector<std::uint8_t> payload(static_cast<std::size_t>(len(rng)));
        for (auto& b : payload) b = static_cast<std::uint8_t>(byte(rng));

        auto wire = ip::encode_datagram(h, payload);
        ip::decrement_ttl(wire);

        ip::Ipv4Header hopped = h;
        hopped.ttl = static_cast<std::uint8_t>(h.ttl - 1);
        EXPECT_EQ(wire, ip::encode_datagram(hopped, payload)) << "trial " << trial;
    }
}

TEST(FastPath, ForwardedWireIsByteIdenticalToReencoding) {
    // End to end through a real gateway: capture the frame arriving at the
    // destination host's interface and check it is exactly the canonical
    // serialization of the decoded header — i.e. what the seed's
    // re-encoding forwarder put on the wire.
    core::Internetwork net(7);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Gateway& gw = net.add_gateway("gw");
    net.connect(a, gw, link::presets::ethernet_hop());
    net.connect(gw, b, link::presets::ethernet_hop());
    net.use_static_routes();

    std::vector<util::ByteBuffer> captured;
    b.ip().interface(0).set_receiver(
        [&captured](link::Packet p) { captured.push_back(std::move(p.bytes)); });

    const std::vector<std::uint8_t> payload(64, 0x5a);
    ASSERT_TRUE(a.ip().send(253, b.address(), payload));
    net.sim().run();

    ASSERT_EQ(captured.size(), 1u);
    const auto& wire = captured.front();
    ip::DecodedDatagram d;
    ASSERT_TRUE(ip::decode_datagram(wire, d));
    EXPECT_EQ(d.header.ttl, 63);  // one hop off the default 64
    EXPECT_EQ(gw.ip().stats().forwarded, 1u);
    const auto reencoded =
        ip::encode_datagram(d.header, ip::payload_of(wire, d));
    EXPECT_EQ(wire, reencoded);
}

// --- allocation freedom -------------------------------------------------

TEST(FastPath, NHopForwardingIsAllocationFreeInSteadyState) {
    constexpr int kHops = 4;
    core::Internetwork net(42);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    std::vector<core::Gateway*> gws;
    for (int i = 0; i < kHops; ++i) {
        gws.push_back(&net.add_gateway("g" + std::to_string(i)));
    }
    core::Node* prev = &a;
    for (auto* gw : gws) {
        net.connect(*prev, *gw, link::presets::ethernet_hop());
        prev = gw;
    }
    net.connect(*prev, b, link::presets::ethernet_hop());
    net.use_static_routes();

    std::uint64_t delivered = 0;
    b.ip().register_protocol(253, [&delivered](const ip::Ipv4Header&,
                                               std::span<const std::uint8_t>,
                                               std::size_t) { ++delivered; });
    const std::vector<std::uint8_t> payload(512, 0xab);
    const auto dst = b.address();

    // Warm every pool on the path: packet buffers, event slots, in-flight
    // nodes, the destination route caches.
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(a.ip().send(253, dst, payload));
        net.sim().run();
    }
    ASSERT_EQ(delivered, 64u);

    const std::uint64_t before = g_heap_allocs;
    constexpr std::uint64_t kRounds = 256;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        a.ip().send(253, dst, payload);
        net.sim().run();
    }
    const std::uint64_t delta = g_heap_allocs - before;
    EXPECT_EQ(delivered, 64u + kRounds);
    EXPECT_EQ(delta, 0u) << "heap allocations on the steady-state forward path";
}

TEST(FastPath, LanForwardingIsAllocationFreeInSteadyState) {
    // a -- lan0 -- g -- lan1 -- b: each datagram crosses two Ethernet
    // LANs. A frame in flight rides inside its delivery event (this, the
    // source port and a 32-byte Packet: 48 bytes of InlineCallback's 64),
    // so the LAN path, like the point-to-point one, never touches the heap
    // once warm.
    core::Internetwork net(42);
    core::Host& a = net.add_host("a");
    core::Gateway& g = net.add_gateway("g");
    core::Host& b = net.add_host("b");
    const std::size_t lan0 = net.add_lan(link::presets::ethernet_lan(), "lan0");
    const std::size_t lan1 = net.add_lan(link::presets::ethernet_lan(), "lan1");
    net.attach_to_lan(a, lan0);
    net.attach_to_lan(g, lan0);
    net.attach_to_lan(g, lan1);
    net.attach_to_lan(b, lan1);
    net.use_static_routes();

    std::uint64_t delivered = 0;
    b.ip().register_protocol(253, [&delivered](const ip::Ipv4Header&,
                                               std::span<const std::uint8_t>,
                                               std::size_t) { ++delivered; });
    const std::vector<std::uint8_t> payload(512, 0xab);
    const auto dst = b.address();

    // Warm every pool on the path, the engine's far-tier store included: a
    // round takes about 1 ms, and the first event scheduled past the near
    // tier's ~67 ms window grows that store once.
    constexpr std::uint64_t kWarmRounds = 128;
    for (std::uint64_t i = 0; i < kWarmRounds; ++i) {
        ASSERT_TRUE(a.ip().send(253, dst, payload));
        net.sim().run();
    }
    ASSERT_EQ(delivered, kWarmRounds);
    ASSERT_GT(net.sim().now(), sim::milliseconds(67));

    const std::uint64_t before = g_heap_allocs;
    constexpr std::uint64_t kRounds = 256;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        a.ip().send(253, dst, payload);
        net.sim().run();
    }
    const std::uint64_t delta = g_heap_allocs - before;
    EXPECT_EQ(delivered, kWarmRounds + kRounds);
    EXPECT_EQ(delta, 0u) << "heap allocations on the steady-state LAN path";
}

TEST(FastPath, LanBroadcastIsAllocationFreeInSteadyState) {
    // a, b and c share one Ethernet LAN and a broadcasts: the medium copies
    // each frame once per receiver, into buffers from the simulator's pool,
    // so a routing advertisement to every neighbor allocates nothing.
    core::Internetwork net(42);
    core::Host& a = net.add_host("a");
    core::Host& b = net.add_host("b");
    core::Host& c = net.add_host("c");
    const std::size_t lan = net.add_lan(link::presets::ethernet_lan(), "lan");
    net.attach_to_lan(a, lan);
    net.attach_to_lan(b, lan);
    net.attach_to_lan(c, lan);
    net.use_static_routes();

    std::uint64_t delivered = 0;
    const auto count = [&delivered](const ip::Ipv4Header&, std::span<const std::uint8_t>,
                                    std::size_t) { ++delivered; };
    b.ip().register_protocol(253, count);
    c.ip().register_protocol(253, count);
    const std::vector<std::uint8_t> payload(512, 0xab);

    // Warm every pool, the engine's far-tier store included. A round takes
    // about 0.43 ms here, so it takes 192 rounds, not the forwarding test's
    // 128, to pass the near tier's ~67 ms window.
    constexpr std::uint64_t kWarmRounds = 192;
    for (std::uint64_t i = 0; i < kWarmRounds; ++i) {
        ASSERT_TRUE(a.ip().send_broadcast(253, 0, payload));
        net.sim().run();
    }
    ASSERT_EQ(delivered, 2 * kWarmRounds);
    ASSERT_GT(net.sim().now(), sim::milliseconds(67));

    const std::uint64_t before = g_heap_allocs;
    constexpr std::uint64_t kRounds = 256;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        a.ip().send_broadcast(253, 0, payload);
        net.sim().run();
    }
    const std::uint64_t delta = g_heap_allocs - before;
    EXPECT_EQ(delivered, 2 * (kWarmRounds + kRounds));
    EXPECT_EQ(delta, 0u) << "heap allocations on the steady-state LAN broadcast path";
}

// --- trains through one gateway -----------------------------------------

constexpr std::uint8_t kTrainProto = 253;  // RFC 3692 experimental

// a -- gw -- b over links fast and long enough that a 32-datagram train
// is all in flight at once: tx(532B) = 42.56us at 100 Mb/s, 31 of them =
// 1.32ms < 2ms of propagation. The queue holds a whole train behind an
// in-progress transmission.
struct Train {
    explicit Train(std::uint64_t seed = 7)
        : net(seed), a(net.add_host("a")), gw(net.add_gateway("gw")), b(net.add_host("b")) {
        link::LinkParams wan;
        wan.bits_per_second = 100'000'000;
        wan.propagation_delay = sim::milliseconds(2);
        wan.queue_capacity_packets = 64;
        net.connect(a, gw, wan);
        net.connect(gw, b, wan);
        net.use_static_routes();
        b.ip().register_protocol(kTrainProto,
                                 [this](const ip::Ipv4Header&,
                                        std::span<const std::uint8_t>,
                                        std::size_t) { ++delivered; });
    }
    void send(std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) a.ip().send(kTrainProto, b.address(), payload);
    }
    core::Internetwork net;
    core::Host& a;
    core::Gateway& gw;
    core::Host& b;
    const util::ByteBuffer payload = util::ByteBuffer(512, 0x5a);
    std::uint64_t delivered = 0;
};

TEST(ForwardTrain, TtlExpiresInsideATrain) {
    // Positions 10 and 20 of a 32-train expire at the gateway; the other 30
    // arrive, and the sender hears two Time Exceeded datagrams.
    Train t;
    for (int i = 0; i < 32; ++i) {
        ip::SendOptions opt;
        if (i == 10 || i == 20) opt.ttl = 1;
        t.a.ip().send(kTrainProto, t.b.address(), t.payload, opt);
    }
    t.net.sim().run();
    EXPECT_EQ(t.delivered, 30u);
    EXPECT_EQ(t.gw.ip().stats().dropped_ttl_expired, 2u);
    EXPECT_EQ(t.gw.ip().stats().icmp_errors_sent, 2u);
    EXPECT_EQ(t.gw.ip().stats().forwarded, 30u);
}

class ForwardTrainMalformed : public ::testing::TestWithParam<int> {};

TEST_P(ForwardTrainMalformed, DroppedAtItsTrainPosition) {
    // A garbage frame (version nibble 0xf) at train position 0, 15 or 31:
    // the gateway drops exactly it and forwards every other datagram.
    const int pos = GetParam();
    Train t;
    for (int i = 0; i < 32; ++i) {
        if (i == pos) {
            t.a.ip().interface(0).send(
                link::Packet{util::ByteBuffer(40, 0xff)},
                t.b.address());
        } else {
            t.send(1);
        }
    }
    t.net.sim().run();
    EXPECT_EQ(t.delivered, 31u);
    EXPECT_EQ(t.gw.ip().stats().dropped_malformed, 1u);
    EXPECT_EQ(t.gw.ip().stats().forwarded, 31u);
}

INSTANTIATE_TEST_SUITE_P(Positions, ForwardTrainMalformed, ::testing::Values(0, 15, 31));

TEST(ForwardTrain, RouteInstallBetweenArrivalsMissesOnce) {
    // An (unrelated) route install between arrivals 10 and 11 bumps the
    // table generation: the next datagram re-probes the cache once, so one
    // destination costs two cold misses, and every datagram still forwards.
    Train t;
    t.send(32);
    t.net.sim().schedule_after(
        sim::microseconds(2000) + sim::nanoseconds(10 * 42'560 + 21'280), [&t] {
            ip::Route r;
            r.prefix = util::Ipv4Prefix::parse("203.0.113.0/24");
            r.ifindex = 0;
            t.gw.ip().routing_table().install(r);
        });
    t.net.sim().run();
    EXPECT_EQ(t.delivered, 32u);
    EXPECT_EQ(t.gw.ip().stats().forwarded, 32u);
    const auto& counters = t.gw.ip().counters();
    EXPECT_EQ(counters.get(telemetry::Counter::IpRouteCacheMiss), 2u)
        << "exactly one extra cold probe after the generation bump";
    EXPECT_EQ(counters.get(telemetry::Counter::IpRouteCacheHit), 30u);
}

TEST(ForwardTrain, CarrierCutWithPacketsInFlightRecovers) {
    // Cut the first hop 100us into a train (two datagrams on the wire, the
    // rest queued): the train is partly lost, nothing crashes or leaks,
    // and traffic flows again after restore.
    Train t;
    t.send(32);
    t.net.sim().schedule_after(sim::microseconds(100), [&t] { t.net.fail_link(0); });
    t.net.run_for(sim::milliseconds(50));
    const std::uint64_t after_cut = t.delivered;
    EXPECT_LT(after_cut, 32u);
    t.net.restore_link(0);
    t.send(32);
    t.net.sim().run();
    EXPECT_EQ(t.delivered, after_cut + 32u);
}

TEST(ForwardTrain, SteadyStateTrainsAreHeapSilent) {
    Train t;
    auto wave = [&t] {
        t.send(32);
        t.net.sim().run();
    };
    // Warm-up: buffer pool, queues, event slots, route cache — and the
    // engine's far-bucket arena, primed past any high-water mark a wave
    // can reach (a wave straddling the 67 ms far-horizon boundary parks
    // its deliveries there; that arena's amortized growth is engine
    // behaviour, not part of the forwarding path under test).
    for (int i = 0; i < 256; ++i) {
        t.net.sim().schedule_after(sim::milliseconds(100 + i), [] {});
    }
    t.net.sim().run();
    for (int i = 0; i < 5; ++i) wave();
    const std::uint64_t before = g_heap_allocs;
    for (int i = 0; i < 10; ++i) wave();
    EXPECT_EQ(g_heap_allocs - before, 0u) << "forwarding a train allocated";
    EXPECT_EQ(t.delivered, 15u * 32u);
}

// --- buffer pool --------------------------------------------------------

TEST(BufferPool, RecyclesCapacityAndIgnoresMovedFromBuffers) {
    util::BufferPool pool(4);
    auto b1 = pool.acquire(1500);
    EXPECT_GE(b1.capacity(), 1500u);
    EXPECT_TRUE(b1.empty());
    const auto* data = b1.data();
    pool.recycle(std::move(b1));
    EXPECT_EQ(pool.pooled(), 1u);
    auto b2 = pool.acquire(100);
    EXPECT_EQ(b2.data(), data);  // same storage came back
    EXPECT_EQ(pool.stats().reuses, 1u);

    util::ByteBuffer dead;  // capacity 0: the moved-from shell
    pool.recycle(std::move(dead));
    EXPECT_EQ(pool.pooled(), 0u);

    // The pool caps its hoard.
    for (int i = 0; i < 10; ++i) pool.recycle(util::ByteBuffer(64));
    EXPECT_EQ(pool.pooled(), 4u);
}

// --- routing table interning & generations ------------------------------

TEST(RoutingTable, LookupPointersAreStableAcrossMutation) {
    ip::RoutingTable table;
    const auto p24 = util::Ipv4Prefix::parse("10.1.0.0/24");
    table.install({p24, util::Ipv4Address::parse("10.9.9.1"), 3, 5, "dv"});
    const ip::Route* route = table.lookup(util::Ipv4Address::parse("10.1.0.7")).get();
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(route->ifindex, 3u);

    // Churn the table around it.
    for (int i = 0; i < 64; ++i) {
        table.install({util::Ipv4Prefix(util::Ipv4Address(0xc0a80000u + 256u * i), 24),
                       util::Ipv4Address::parse("10.9.9.2"), 1, 1, "static"});
    }
    table.remove(util::Ipv4Prefix::parse("192.168.5.0/24"));

    // Re-installing the same prefix updates the interned node in place:
    // the old pointer observes the new contents.
    table.install({p24, util::Ipv4Address::parse("10.9.9.3"), 7, 2, "dv"});
    EXPECT_EQ(route, table.lookup(util::Ipv4Address::parse("10.1.0.7")).get());
    EXPECT_EQ(route->ifindex, 7u);
    EXPECT_EQ(route->next_hop, util::Ipv4Address::parse("10.9.9.3"));
}

TEST(RoutingTable, GenerationBumpsOnEveryEffectiveMutation) {
    ip::RoutingTable table;
    const auto g0 = table.generation();
    table.install({util::Ipv4Prefix::parse("10.0.0.0/8"),
                   util::Ipv4Address::parse("10.0.0.1"), 0, 0, "static"});
    const auto g1 = table.generation();
    EXPECT_GT(g1, g0);

    table.install({util::Ipv4Prefix::parse("10.0.0.0/8"),
                   util::Ipv4Address::parse("10.0.0.2"), 0, 0, "static"});
    const auto g2 = table.generation();
    EXPECT_GT(g2, g1);  // replacement changes routing: must invalidate

    table.remove_by_origin("dv");  // nothing matches: harmless no-op
    EXPECT_EQ(table.generation(), g2);
    EXPECT_FALSE(table.remove(util::Ipv4Prefix::parse("172.16.0.0/12")));
    EXPECT_EQ(table.generation(), g2);

    EXPECT_TRUE(table.remove(util::Ipv4Prefix::parse("10.0.0.0/8")));
    EXPECT_GT(table.generation(), g2);
}

TEST(RoutingTable, RemoveByUnknownOriginIsANoOp) {
    ip::RoutingTable table;
    table.install({util::Ipv4Prefix::parse("10.0.0.0/8"),
                   util::Ipv4Address::parse("10.0.0.1"), 0, 0, "static"});
    table.remove_by_origin("bogus");
    EXPECT_EQ(table.size(), 1u);
}

// --- route cache invalidation through the live stack --------------------

class RouteCacheTopology : public ::testing::Test {
protected:
    // a reaches b through g1 or g2 (parallel two-hop paths). Static routes
    // pick one; the tests then steer a's stack with a /32 and watch which
    // gateway's forwarded counter moves — a stale cache line would keep
    // packets on the old path.
    RouteCacheTopology() : net(11), a(net.add_host("a")), b(net.add_host("b")),
                           g1(net.add_gateway("g1")), g2(net.add_gateway("g2")) {
        net.connect(a, g1, link::presets::ethernet_hop());  // a ifindex 0
        net.connect(a, g2, link::presets::ethernet_hop());  // a ifindex 1
        net.connect(g1, b, link::presets::ethernet_hop());
        net.connect(g2, b, link::presets::ethernet_hop());
        net.use_static_routes();
        b.ip().register_protocol(253, [this](const ip::Ipv4Header&,
                                             std::span<const std::uint8_t>,
                                             std::size_t) { ++delivered; });
    }

    // Next hop on one of a's point-to-point subnets: a holds .1, peer .2.
    util::Ipv4Address next_hop_via(std::size_t a_ifindex) const {
        return util::Ipv4Address(a.ip().interface_address(a_ifindex).value() + 1);
    }

    void send_n(int n) {
        const std::vector<std::uint8_t> payload(32, 0x11);
        for (int i = 0; i < n; ++i) {
            ASSERT_TRUE(a.ip().send(253, b.address(), payload));
            net.sim().run();
        }
    }

    std::uint64_t via_g1() const { return g1.ip().stats().forwarded; }
    std::uint64_t via_g2() const { return g2.ip().stats().forwarded; }

    core::Internetwork net;
    core::Host& a;
    core::Host& b;
    core::Gateway& g1;
    core::Gateway& g2;
    std::uint64_t delivered = 0;
};

TEST_F(RouteCacheTopology, InstallInvalidatesWarmCache) {
    send_n(5);  // warm a's destination cache on the static path
    const bool warm_via_g1 = via_g1() == 5;
    ASSERT_TRUE(warm_via_g1 || via_g2() == 5);

    // Steer b's address through the *other* gateway with a /32.
    const std::size_t other_if = warm_via_g1 ? 1u : 0u;
    a.ip().routing_table().install({util::Ipv4Prefix(b.address(), 32),
                                    next_hop_via(other_if), other_if, 0, "dv"});
    send_n(5);
    EXPECT_EQ(warm_via_g1 ? via_g2() : via_g1(), 5u)
        << "packets kept flowing through the stale cached route";
    EXPECT_EQ(delivered, 10u);
}

TEST_F(RouteCacheTopology, RemoveRestoresTheCoarserRoute) {
    send_n(3);
    const bool warm_via_g1 = via_g1() == 3;
    const std::size_t other_if = warm_via_g1 ? 1u : 0u;
    a.ip().routing_table().install({util::Ipv4Prefix(b.address(), 32),
                                    next_hop_via(other_if), other_if, 0, "dv"});
    send_n(3);
    ASSERT_TRUE(a.ip().routing_table().remove(util::Ipv4Prefix(b.address(), 32)));
    send_n(3);  // must fall back to the original path, not the dead cache line
    EXPECT_EQ(warm_via_g1 ? via_g1() : via_g2(), 6u);
    EXPECT_EQ(warm_via_g1 ? via_g2() : via_g1(), 3u);
    EXPECT_EQ(delivered, 9u);
}

TEST_F(RouteCacheTopology, RemoveByOriginInvalidates) {
    send_n(2);
    const bool warm_via_g1 = via_g1() == 2;
    const std::size_t other_if = warm_via_g1 ? 1u : 0u;
    a.ip().routing_table().install({util::Ipv4Prefix(b.address(), 32),
                                    next_hop_via(other_if), other_if, 0, "dv"});
    send_n(2);
    a.ip().routing_table().remove_by_origin("dv");
    send_n(2);
    EXPECT_EQ(warm_via_g1 ? via_g1() : via_g2(), 4u);
    EXPECT_EQ(delivered, 6u);
}

TEST_F(RouteCacheTopology, FlushRoutesLeavesNoCachedPath) {
    send_n(4);
    EXPECT_EQ(delivered, 4u);
    a.ip().flush_routes();
    const std::vector<std::uint8_t> payload(32, 0x22);
    // A stale cache hit would silently forward; the flush must surface as
    // a synchronous no-route failure.
    EXPECT_FALSE(a.ip().send(253, b.address(), payload));
    EXPECT_EQ(a.ip().stats().dropped_no_route, 1u);
}

// --- exact serialization delay ------------------------------------------

TEST(LinkParams, TransmissionTimeIsExactIntegerCeil) {
    link::LinkParams p;
    p.bits_per_second = 10'000'000;
    EXPECT_EQ(p.transmission_time(1500), sim::Time(1'200'000));  // exact

    p.bits_per_second = 3;  // pathological rate: 1 byte = 8/3 s
    EXPECT_EQ(p.transmission_time(1), sim::Time(2'666'666'667));  // ceil, not trunc

    p.bits_per_second = 7;
    EXPECT_EQ(p.transmission_time(1), sim::Time(1'142'857'143));  // 8e9/7 rounded up

    p.bits_per_second = 1'000'000'000;
    EXPECT_EQ(p.transmission_time(1500), sim::Time(12'000));

    // Above ~4 Gb/s the old double round-trip lost low bits; the integer
    // path stays exact.
    p.bits_per_second = 100'000'000'000ull;
    EXPECT_EQ(p.transmission_time(1500), sim::Time(120));
    p.bits_per_second = 64'000'000'000ull;
    EXPECT_EQ(p.transmission_time(1), sim::Time(1));  // 0.125 ns occupies 1 ns
}

TEST(LinkParams, ValidateNamesTheFieldOutOfRange) {
    const auto rejected_field = [](auto mutate) -> std::string {
        link::LinkParams p;
        mutate(p);
        try {
            p.validate();
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "accepted";
    };
    using P = link::LinkParams;
    EXPECT_NE(rejected_field([](P& p) { p.bits_per_second = 0; }).find("bits_per_second"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.mtu = 67; }).find("mtu"), std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.mtu = 65536; }).find("mtu"), std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.drop_probability = 1.5; }).find("drop_probability"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.drop_probability = -1; }).find("drop_probability"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.bit_error_rate = 2; }).find("bit_error_rate"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.propagation_delay = sim::milliseconds(-5); })
                  .find("propagation_delay"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.jitter = sim::nanoseconds(-1); }).find("jitter"),
              std::string::npos);
    // The edges of every range are legal.
    EXPECT_EQ(rejected_field([](P& p) {
                  p.mtu = 68;
                  p.drop_probability = 1.0;
                  p.bit_error_rate = 0.0;
                  p.propagation_delay = sim::Time(0);
              }),
              "accepted");
    EXPECT_EQ(rejected_field([](P& p) { p.mtu = 65535; }), "accepted");
}

TEST(LinkParams, LinkConstructorsRejectBadParamsAndValidInputIsHeapSilent) {
    sim::Simulator sim;
    util::Rng rng(1);
    link::LinkParams bad;
    bad.bits_per_second = 0;
    EXPECT_THROW(link::PointToPointLink(sim, rng, bad), std::invalid_argument);
    EXPECT_THROW(link::PointToPointLink(sim, rng, link::LinkParams{}, bad),
                 std::invalid_argument);
    sim::ParallelSimulator psim(2, 1);
    EXPECT_THROW(link::PointToPointLink(psim, 0, 1, rng, bad), std::invalid_argument);
    EXPECT_THROW(link::PointToPointLink(psim, 1, 1, rng, link::LinkParams{}),
                 std::invalid_argument);

    const link::LinkParams good = link::presets::ethernet_hop();
    const std::uint64_t before = g_heap_allocs;
    for (int i = 0; i < 100; ++i) good.validate();
    EXPECT_EQ(g_heap_allocs - before, 0u) << "validating good params allocated";
}

TEST(LanParams, ValidateNamesTheFieldAndTheLanConstructorCallsIt) {
    const auto rejected_field = [](auto mutate) -> std::string {
        link::LanParams p = link::presets::ethernet_lan();
        mutate(p);
        try {
            p.validate();
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "accepted";
    };
    using P = link::LanParams;
    EXPECT_EQ(rejected_field([](P& p) { p.bits_per_second = 0; }),
              "LanParams::bits_per_second must be > 0, got 0");
    EXPECT_NE(rejected_field([](P& p) { p.mtu = 67; }).find("LanParams::mtu"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.mtu = 65536; }).find("LanParams::mtu"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.drop_probability = 1.5; }).find("drop_probability"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.drop_probability = -1; }).find("drop_probability"),
              std::string::npos);
    EXPECT_NE(rejected_field([](P& p) { p.propagation_delay = sim::nanoseconds(-1); })
                  .find("propagation_delay"),
              std::string::npos);
    EXPECT_EQ(rejected_field([](P& p) {
                  p.mtu = 68;
                  p.drop_probability = 1.0;
                  p.propagation_delay = sim::Time(0);
              }),
              "accepted");
    EXPECT_EQ(rejected_field([](P& p) { p.mtu = 65535; }), "accepted");

    // A zero rate would reach Lan::medium_idle's divide.
    sim::Simulator sim;
    util::Rng rng(1);
    link::LanParams bad = link::presets::ethernet_lan();
    bad.bits_per_second = 0;
    EXPECT_THROW(link::Lan(sim, rng, bad), std::invalid_argument);
    core::Internetwork net(1);
    EXPECT_THROW(net.add_lan(bad), std::invalid_argument);
}

}  // namespace
}  // namespace catenet
