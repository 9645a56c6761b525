#include "ip/routing_table.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <stdexcept>
#include <string>

namespace catenet::ip {

namespace {

/// RoutingTable::precedes() over a raw (length, address) key, so a lookup
/// probes without building a prefix.
inline bool key_less(int len_a, std::uint32_t addr_a, int len_b,
                     std::uint32_t addr_b) noexcept {
    if (len_a != len_b) return len_a > len_b;
    return addr_a < addr_b;
}

inline bool route_less(const Route& a, const Route& b) noexcept {
    return RoutingTable::precedes(a.prefix, b.prefix);
}

/// The first route of the table's array (const or not) not ordered before
/// the key (len, addr): the route with that prefix if the table holds one,
/// else where it would go. One binary search.
template <class Routes>
auto slot(Routes& ordered, int len, std::uint32_t addr) {
    return std::partition_point(ordered.begin(), ordered.end(), [=](const Route& r) {
        return key_less(r.prefix.length(), r.prefix.address().value(), len, addr);
    });
}

template <class Routes>
auto slot(Routes& ordered, const util::Ipv4Prefix& prefix) {
    return slot(ordered, prefix.length(), prefix.address().value());
}

inline std::uint32_t mask_of(int len) noexcept {
    return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
}

}  // namespace

RouteOrigin::Tag RouteOrigin::parse(std::string_view name) {
    if (name == "connected") return Tag::Connected;
    if (name == "static") return Tag::Static;
    if (name == "dv") return Tag::Dv;
    if (name == "egp") return Tag::Egp;
    throw std::invalid_argument("unknown route origin: " + std::string(name));
}

std::ostream& operator<<(std::ostream& os, RouteOrigin origin) {
    return os << origin.view();
}

void RoutingTable::note_added(int length) noexcept {
    if (++len_count_[static_cast<std::size_t>(length)] == 1) {
        len_mask_ |= std::uint64_t{1} << length;
    }
}

void RoutingTable::note_removed(int length) noexcept {
    if (--len_count_[static_cast<std::size_t>(length)] == 0) {
        len_mask_ &= ~(std::uint64_t{1} << length);
    }
}

void RoutingTable::install(const Route& route) {
    auto pos = slot(ordered_, route.prefix);
    if (pos != ordered_.end() && pos->prefix == route.prefix) {
        if (*pos == route) return;  // unchanged: every cache line stays live
        *pos = route;
    } else {
        ordered_.insert(pos, route);
        note_added(route.prefix.length());
    }
    ++generation_;
}

void RoutingTable::bulk_load(std::span<const Route> routes) {
    if (routes.empty()) return;
    // A batch in table order is taken as it stands. Any other is sorted
    // into a copy, stably, so that equal prefixes keep their batch order.
    std::vector<Route> sorted;
    if (!std::is_sorted(routes.begin(), routes.end(), route_less)) {
        sorted.assign(routes.begin(), routes.end());
        std::stable_sort(sorted.begin(), sorted.end(), route_less);
        routes = sorted;
    }
    // Keep-last: of a run of equal prefixes only the last counts, as over
    // a sequence of install() calls.
    const auto superseded = [&](std::size_t i) {
        return i + 1 < routes.size() && routes[i + 1].prefix == routes[i].prefix;
    };
    // Whether the table's old routes hold route i's prefix, leaving `at`
    // at its place among them. The batch shares the table's order, so one
    // forward walk over the old routes serves the whole batch.
    const std::size_t old_size = ordered_.size();
    std::size_t at = 0;
    const auto held = [&](std::size_t i) {
        while (at < old_size && route_less(ordered_[at], routes[i])) ++at;
        return at < old_size && ordered_[at].prefix == routes[i].prefix;
    };

    // Replace in place the prefixes the table holds and count the rest, so
    // that the array grows once, by exactly their count; then append the
    // rest, still in key order.
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < routes.size(); ++i) {
        if (superseded(i)) continue;
        if (held(i)) {
            ordered_[at] = routes[i];
        } else {
            ++fresh;
        }
    }
    if (fresh > 0) {
        ordered_.reserve(old_size + fresh);
        at = 0;
        for (std::size_t i = 0; i < routes.size(); ++i) {
            if (superseded(i) || held(i)) continue;
            ordered_.push_back(routes[i]);
            note_added(routes[i].prefix.length());
        }
        // One merge restores the global order: the tail is already sorted.
        std::inplace_merge(ordered_.begin(),
                           ordered_.begin() + static_cast<std::ptrdiff_t>(old_size),
                           ordered_.end(), route_less);
    }
    ++generation_;
}

bool RoutingTable::remove(const util::Ipv4Prefix& prefix) {
    auto it = slot(ordered_, prefix);
    if (it == ordered_.end() || it->prefix != prefix) return false;
    ordered_.erase(it);
    note_removed(prefix.length());
    ++generation_;
    return true;
}

void RoutingTable::remove_by_origin(std::string_view origin) {
    const auto removed = std::erase_if(ordered_, [&](const Route& r) {
        if (r.origin != origin) return false;
        note_removed(r.prefix.length());
        return true;
    });
    if (removed != 0) ++generation_;
}

RouteRef RoutingTable::lookup(util::Ipv4Address dst) const {
    // Probe each populated prefix length, longest first: mask the
    // destination down to that length and binary-search for the exact
    // prefix. First hit is the longest match.
    std::uint64_t mask = len_mask_;
    while (mask != 0) {
        const int len = std::bit_width(mask) - 1;
        mask &= ~(std::uint64_t{1} << len);
        const std::uint32_t key = dst.value() & mask_of(len);
        auto it = slot(ordered_, len, key);
        if (it != ordered_.end() && it->prefix.length() == len &&
            it->prefix.address().value() == key) {
            return RouteRef(&*it);
        }
    }
    return RouteRef();
}

RouteRef RoutingTable::find(const util::Ipv4Prefix& prefix) const {
    auto it = slot(ordered_, prefix);
    if (it == ordered_.end() || it->prefix != prefix) return RouteRef();
    return RouteRef(&*it);
}

std::vector<Route> RoutingTable::routes() const { return ordered_; }

}  // namespace catenet::ip
