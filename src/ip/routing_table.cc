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

inline bool route_less(const Route* a, const Route* b) noexcept {
    return key_less(a->prefix.length(), a->prefix.address().value(),
                    b->prefix.length(), b->prefix.address().value());
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

Route* RoutingTable::acquire_node(const Route& route) {
    if (!free_nodes_.empty()) {
        Route* node = free_nodes_.back();
        free_nodes_.pop_back();
        *node = route;
        return node;
    }
    arena_.push_back(route);
    return &arena_.back();
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

std::vector<Route*>::iterator RoutingTable::find_slot(const util::Ipv4Prefix& prefix) {
    const int len = prefix.length();
    const std::uint32_t addr = prefix.address().value();
    auto it = std::lower_bound(ordered_.begin(), ordered_.end(), prefix,
                               [&](const Route* r, const util::Ipv4Prefix&) {
                                   return key_less(r->prefix.length(),
                                                   r->prefix.address().value(), len, addr);
                               });
    if (it != ordered_.end() && (*it)->prefix == prefix) return it;
    return ordered_.end();
}

std::vector<Route*>::const_iterator RoutingTable::find_slot(
    const util::Ipv4Prefix& prefix) const {
    return const_cast<RoutingTable*>(this)->find_slot(prefix);
}

void RoutingTable::install(const Route& route) {
    const int len = route.prefix.length();
    const std::uint32_t addr = route.prefix.address().value();
    auto pos = std::lower_bound(ordered_.begin(), ordered_.end(), route,
                                [&](const Route* r, const Route&) {
                                    return key_less(r->prefix.length(),
                                                    r->prefix.address().value(), len, addr);
                                });
    if (pos != ordered_.end() && (*pos)->prefix == route.prefix) {
        **pos = route;  // in place: interned pointers observe the update
        ++generation_;
        return;
    }
    ordered_.insert(pos, acquire_node(route));
    note_added(len);
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
        if (x.first->prefix != y.first->prefix) return route_less(x.first, y.first);
        return x.second > y.second;
    });

    // Search only the pre-batch (still sorted) range while appending: the
    // growing tail is not ordered relative to the head until the merge.
    const std::size_t old_size = ordered_.size();
    auto find_existing = [&](const util::Ipv4Prefix& prefix) -> Route* {
        const int len = prefix.length();
        const std::uint32_t addr = prefix.address().value();
        const auto end = ordered_.begin() + static_cast<std::ptrdiff_t>(old_size);
        auto it = std::lower_bound(ordered_.begin(), end, prefix,
                                   [&](const Route* r, const util::Ipv4Prefix&) {
                                       return key_less(r->prefix.length(),
                                                       r->prefix.address().value(), len,
                                                       addr);
                                   });
        if (it != end && (*it)->prefix == prefix) return *it;
        return nullptr;
    };
    const util::Ipv4Prefix* last = nullptr;
    for (const auto& [route, index] : batch) {
        if (last != nullptr && *last == route->prefix) continue;  // dup: later won
        last = &route->prefix;
        if (Route* existing = find_existing(route->prefix)) {
            *existing = *route;  // replace in place, pointer stability
        } else {
            ordered_.push_back(acquire_node(*route));
            note_added(route->prefix.length());
        }
    }
    // One merge restores the global order: the survivors were appended in
    // key order (batch was sorted), so the tail is already sorted.
    std::inplace_merge(ordered_.begin(),
                       ordered_.begin() + static_cast<std::ptrdiff_t>(old_size),
                       ordered_.end(), route_less);
    ++generation_;
}

bool RoutingTable::remove(const util::Ipv4Prefix& prefix) {
    auto it = find_slot(prefix);
    if (it == ordered_.end()) return false;
    free_nodes_.push_back(*it);
    note_removed(prefix.length());
    ordered_.erase(it);
    ++generation_;
    return true;
}

void RoutingTable::remove_by_origin(std::string_view origin) {
    const std::size_t before = ordered_.size();
    std::erase_if(ordered_, [&](Route* r) {
        if (r->origin != origin) return false;
        free_nodes_.push_back(r);
        note_removed(r->prefix.length());
        return true;
    });
    if (ordered_.size() != before) ++generation_;
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
        auto it = std::lower_bound(ordered_.begin(), ordered_.end(), key,
                                   [&](const Route* r, std::uint32_t) {
                                       return key_less(r->prefix.length(),
                                                       r->prefix.address().value(), len, key);
                                   });
        if (it != ordered_.end() && (*it)->prefix.length() == len &&
            (*it)->prefix.address().value() == key) {
            return RouteRef(*it);
        }
    }
    return RouteRef();
}

RouteRef RoutingTable::find(const util::Ipv4Prefix& prefix) const {
    auto it = find_slot(prefix);
    if (it == ordered_.end()) return RouteRef();
    return RouteRef(*it);
}

std::vector<Route> RoutingTable::routes() const {
    std::vector<Route> snapshot;
    snapshot.reserve(ordered_.size());
    for (const Route* r : ordered_) snapshot.push_back(*r);
    return snapshot;
}

}  // namespace catenet::ip
