#include "ip/routing_table.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <stdexcept>
#include <string>

namespace catenet::ip {

namespace {

/// The table's sort key: longer prefixes first, then ascending prefix
/// address. Within one length prefixes are disjoint, so at most one can
/// contain a given destination — first-match iteration over this order IS
/// longest-prefix match.
inline bool key_less(int len_a, std::uint32_t addr_a, int len_b,
                     std::uint32_t addr_b) noexcept {
    if (len_a != len_b) return len_a > len_b;
    return addr_a < addr_b;
}

inline bool route_less(const Route& a, const Route& b) noexcept {
    return key_less(a.prefix.length(), a.prefix.address().value(), b.prefix.length(),
                    b.prefix.address().value());
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
    // Keep-last dedup within the batch (a later duplicate wins, matching a
    // sequence of install() calls): sort (key, batch index) descending by
    // index within a key, keep the first seen per key.
    std::vector<std::pair<const Route*, std::size_t>> batch;
    batch.reserve(routes.size());
    for (std::size_t i = 0; i < routes.size(); ++i) batch.emplace_back(&routes[i], i);
    std::sort(batch.begin(), batch.end(), [](const auto& x, const auto& y) {
        if (x.first->prefix != y.first->prefix) return route_less(*x.first, *y.first);
        return x.second > y.second;
    });

    // Replace in place the prefixes the table holds, and compact the new
    // ones to the front of `batch`, still in key order, so that the array
    // grows once, by exactly their count.
    std::size_t fresh = 0;
    const util::Ipv4Prefix* last = nullptr;
    for (const auto& [route, index] : batch) {
        if (last != nullptr && *last == route->prefix) continue;  // dup: later won
        last = &route->prefix;
        auto pos = slot(ordered_, route->prefix);
        if (pos != ordered_.end() && pos->prefix == route->prefix) {
            *pos = *route;
        } else {
            batch[fresh++].first = route;
        }
    }
    const std::size_t old_size = ordered_.size();
    ordered_.reserve(old_size + fresh);
    for (std::size_t i = 0; i < fresh; ++i) {
        ordered_.push_back(*batch[i].first);
        note_added(batch[i].first->prefix.length());
    }
    // One merge restores the global order: the new routes were appended in
    // key order, so the tail is already sorted.
    std::inplace_merge(ordered_.begin(),
                       ordered_.begin() + static_cast<std::ptrdiff_t>(old_size),
                       ordered_.end(), route_less);
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
