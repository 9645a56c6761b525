#include "telemetry/flight_recorder.h"

#include <iomanip>
#include <sstream>

#include "ip/protocols.h"
#include "util/ip_address.h"

namespace catenet::telemetry {

std::string protocol_name(std::uint8_t protocol) {
    switch (protocol) {
        case ip::kProtoIcmp: return "ICMP";
        case ip::kProtoTcp: return "TCP";
        case ip::kProtoUdp: return "UDP";
        case ip::kProtoEgp: return "EGP";
        case ip::kProtoDistanceVector: return "DV";
        default: return std::to_string(protocol);
    }
}

std::string format_trace_line(const PacketRecord& r, const std::string& name) {
    std::ostringstream os;
    os << "[" << std::fixed << std::setprecision(6) << std::setw(11)
       << static_cast<double>(r.t_ns) / 1e9 << "] " << name << " "
       << std::left << std::setw(7) << to_cstr(static_cast<PacketEvent>(r.event))
       << std::right << " " << util::Ipv4Address{r.src}.to_string() << " > "
       << util::Ipv4Address{r.dst}.to_string() << " " << protocol_name(r.protocol) << " "
       << r.wire_bytes << "B ttl=" << int(r.ttl);
    if (r.tos != 0) os << " tos=0x" << std::hex << int(r.tos) << std::dec;
    if (r.frag_off != 0 || r.more_fragments != 0) {
        os << " frag=" << std::size_t{r.frag_off} * 8 << (r.more_fragments ? "+" : "$");
    }
    os << "\n";
    return os.str();
}

std::size_t FlightRecorder::add_lane(std::string name, std::size_t capacity) {
    lanes_.push_back(std::make_unique<Lane>(std::move(name), capacity));
    return lanes_.size() - 1;
}

std::string FlightRecorder::decode_lane(std::size_t i) const {
    const Lane& lane = *lanes_.at(i);
    std::string out;
    for (std::size_t k = 0; k < lane.ring.held(); ++k) {
        out += format_trace_line(lane.ring.at(k), lane.name);
    }
    return out;
}

std::string FlightRecorder::merged() const {
    // Per-lane records are already time-sorted (each node's clock is
    // monotone); k-way index merge, ties to the lower lane id then
    // per-lane order.
    std::vector<std::size_t> pos(lanes_.size(), 0);
    std::size_t remaining = 0;
    for (const auto& l : lanes_) remaining += l->ring.held();
    std::string out;
    while (remaining > 0) {
        std::size_t best = lanes_.size();
        std::int64_t best_t = 0;
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            if (pos[i] >= lanes_[i]->ring.held()) continue;
            const std::int64_t t = lanes_[i]->ring.at(pos[i]).t_ns;
            if (best == lanes_.size() || t < best_t) {
                best = i;
                best_t = t;
            }
        }
        out += format_trace_line(lanes_[best]->ring.at(pos[best]), lanes_[best]->name);
        ++pos[best];
        --remaining;
    }
    return out;
}

std::uint64_t FlightRecorder::total_records() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : lanes_) n += l->ring.total();
    return n;
}

std::uint64_t FlightRecorder::total_overwritten() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : lanes_) n += l->ring.overwritten();
    return n;
}

}  // namespace catenet::telemetry
