#include "trace.h"

namespace perfbench {

const char* span_label(SpanName name) noexcept {
    switch (name) {
        case SpanName::CoreBuild: return "core.build";
        case SpanName::RoutingStatic: return "routing.static";
        case SpanName::CoreInject: return "core.inject";
        case SpanName::SimRun: return "sim.run";
        case SpanName::TcpSend: return "tcp.send";
        case SpanName::AppOnData: return "app.on_data";
        case SpanName::IpFibLookup: return "ip.fib.lookup";
        case SpanName::kCount: break;
    }
    return "?";
}

Tracer& tracer() noexcept {
    static Tracer instance;
    return instance;
}

}  // namespace perfbench
