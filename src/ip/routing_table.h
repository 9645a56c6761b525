// Longest-prefix-match forwarding table. Shared by hosts (usually one
// connected route plus a default) and gateways (populated statically or by
// the routing protocols in src/routing/).
//
// Built for the forwarding hot path: lookup() hands out a pointer into the
// table (no Route copy, no string copy per packet), good until the table's
// next mutation. A generation counter — bumped on every mutation that
// changes the table — and block_mask() let callers layer soft-state caches
// on top that can never serve a stale route: IpStack's route cache copies
// each longest match's egress interface and next hop into a line keyed by
// address block, and serves the line only under the generation it was
// filled under, so it holds no pointer into the table (DESIGN.md §13).
//
// Storage is one flat array of routes kept sorted by (descending prefix
// length, ascending prefix address): every operation — exact find,
// install, remove, and each per-length probe of the longest-prefix match —
// is a binary search, and a 33-bit occupancy mask skips empty lengths, so
// lookup costs O(distinct-lengths × log n) instead of a linear scan.
// Population-scale builds go through bulk_load(): one merge per batch
// rather than one ordered insertion per route, and no sort for a batch
// that arrives in table order, as the static-route pass builds them.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "util/ip_address.h"

namespace catenet::ip {

/// Provenance of an installed route: who put it there. Distributed-
/// management experiments audit this; flush_routes() keys off it. A small
/// tag rather than a string so that Route is trivially copyable and a
/// per-packet lookup never touches the heap.
class RouteOrigin {
public:
    enum class Tag : std::uint8_t { Connected, Static, Dv, Egp };

    constexpr RouteOrigin() noexcept = default;  ///< "static"
    constexpr RouteOrigin(Tag tag) noexcept : tag_(tag) {}  // NOLINT(google-explicit-constructor)
    /// Named construction keeps the seed's string-based call sites
    /// (`route.origin = "dv"`) working; unknown names throw.
    RouteOrigin(std::string_view name) : tag_(parse(name)) {}  // NOLINT(google-explicit-constructor)
    RouteOrigin(const char* name) : tag_(parse(name)) {}  // NOLINT(google-explicit-constructor)

    constexpr Tag tag() const noexcept { return tag_; }

    constexpr std::string_view view() const noexcept {
        switch (tag_) {
            case Tag::Connected: return "connected";
            case Tag::Static: return "static";
            case Tag::Dv: return "dv";
            case Tag::Egp: return "egp";
        }
        return "static";
    }

    friend constexpr bool operator==(RouteOrigin a, RouteOrigin b) noexcept {
        return a.tag_ == b.tag_;
    }
    // Exact-type overloads so `origin == "dv"` is unambiguous (both
    // RouteOrigin and string_view are one implicit conversion away from a
    // string literal). Comparing against an unknown name is false, not an
    // error — remove_by_origin("bogus") must be a harmless no-op.
    friend constexpr bool operator==(RouteOrigin a, std::string_view b) noexcept {
        return a.view() == b;
    }
    friend constexpr bool operator==(RouteOrigin a, const char* b) noexcept {
        return a.view() == std::string_view(b);
    }

private:
    static Tag parse(std::string_view name);

    Tag tag_ = Tag::Static;
};

std::ostream& operator<<(std::ostream& os, RouteOrigin origin);

/// One table entry. A population-scale build holds millions (the soak's
/// 1,024 gateway tables hold 2,096,128), so the layout stays at 24 bytes:
/// ifindex is 32 bits wide, as in IpStack's route decision and
/// TopologyStore, so no padding sits between the 32-bit fields.
struct Route {
    util::Ipv4Prefix prefix;
    /// Unspecified means "directly connected": forward to the destination
    /// itself on the output interface.
    util::Ipv4Address next_hop;
    std::uint32_t ifindex = 0;
    /// Routing-protocol metric (hop count for DV); 0 for connected/static.
    std::uint32_t metric = 0;
    RouteOrigin origin;

    bool operator==(const Route&) const = default;
};
static_assert(sizeof(Route) == 24);

/// What lookup()/find() return: a nullable reference to a Route in the
/// table. Pointer-shaped (one word, no copy) but optional-flavored so call
/// sites written against the seed's std::optional<Route> keep reading
/// naturally. Valid until the table's next mutation (the next generation()
/// bump): any install, remove or batch may move the array it points into.
class RouteRef {
public:
    constexpr RouteRef() noexcept = default;
    constexpr explicit RouteRef(const Route* route) noexcept : route_(route) {}

    constexpr bool has_value() const noexcept { return route_ != nullptr; }
    constexpr explicit operator bool() const noexcept { return route_ != nullptr; }
    constexpr const Route* operator->() const noexcept { return route_; }
    constexpr const Route& operator*() const noexcept { return *route_; }
    constexpr const Route* get() const noexcept { return route_; }

private:
    const Route* route_ = nullptr;
};

class RoutingTable {
public:
    /// Installs or replaces the route for exactly this prefix. Incremental:
    /// one binary search plus one ordered insertion, never a re-sort.
    /// Re-installing a route exactly as it stands changes nothing, so the
    /// generation stays: a routing protocol repeating what it already
    /// heard leaves every cache line over the table live.
    void install(const Route& route);

    /// Batch install: same replace-or-insert semantics as install() per
    /// entry (later duplicates in the batch win, matching sequential
    /// installs), but new routes are appended, growing the array once, and
    /// merged with ONE pass. The topology generator's route-computation
    /// path — a hundred thousand installs arrive as one batch per node.
    /// A batch already in table order (see precedes()) is taken as it
    /// stands; any other is stably sorted first. Bumps the generation once
    /// for a non-empty batch.
    void bulk_load(std::span<const Route> routes);

    /// The table's order: longer prefixes first, then ascending prefix
    /// address. Within one length prefixes are disjoint, so first-match
    /// iteration over this order is longest-prefix match.
    static constexpr bool precedes(const util::Ipv4Prefix& a,
                                   const util::Ipv4Prefix& b) noexcept {
        if (a.length() != b.length()) return a.length() > b.length();
        return a.address().value() < b.address().value();
    }

    /// Removes the route for exactly this prefix; returns whether found.
    bool remove(const util::Ipv4Prefix& prefix);

    /// Removes every route whose origin matches (e.g. flush "dv" routes).
    void remove_by_origin(std::string_view origin);

    /// Longest-prefix match: probes each populated prefix length, longest
    /// first, with one binary search per length. The referenced Route is
    /// the table's own, never copied per lookup.
    RouteRef lookup(util::Ipv4Address dst) const;

    /// Exact-prefix fetch (for routing protocols comparing metrics).
    RouteRef find(const util::Ipv4Prefix& prefix) const;

    /// Snapshot of the table in longest-prefix-first order.
    std::vector<Route> routes() const;

    std::size_t size() const noexcept { return ordered_.size(); }

    /// Bumped by every mutation (install, remove, remove_by_origin) that
    /// changes the table. Soft-state caches compare generations instead of
    /// registering invalidation hooks: a stale cache line is simply one
    /// whose generation no longer matches, and dropping it costs one LPM.
    std::uint64_t generation() const noexcept { return generation_; }

    /// The netmask of the longest prefix length the table holds (0 for an
    /// empty table or one holding only /0). No route is longer, so every
    /// address in one block under this mask has the same longest match: a
    /// cache keyed by `dst & block_mask()` is exact. It changes only with
    /// generation().
    std::uint32_t block_mask() const noexcept {
        // bit_width(len_mask_) is the longest length + 1 (0 when empty):
        // shifting a 64-bit all-ones left by 33 minus it leaves exactly
        // that many low-32 bits set at the top, and none for /0 or empty.
        return static_cast<std::uint32_t>(~std::uint64_t{0}
                                          << (33 - std::bit_width(len_mask_)));
    }

private:
    void note_added(int length) noexcept;
    void note_removed(int length) noexcept;

    /// Sorted by precedes(): binary-searchable, and still
    /// longest-prefix-first for first-match iteration and the routes()
    /// snapshot.
    std::vector<Route> ordered_;
    /// Routes per prefix length, plus a 33-bit occupancy mask (bit = a
    /// length with at least one route) so lookup() probes only lengths
    /// that exist — typically 2–3 even in a population-scale FIB.
    std::array<std::uint32_t, 33> len_count_{};
    std::uint64_t len_mask_ = 0;
    std::uint64_t generation_ = 1;
};

}  // namespace catenet::ip
