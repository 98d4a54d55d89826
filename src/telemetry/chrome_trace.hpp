// chrome://tracing export of SpanTracer spans.
//
// Renders telemetry::SpanTracer snapshots as the Trace Event Format JSON
// that Perfetto (https://ui.perfetto.dev) and chrome://tracing load
// directly. The DMM execution-trace export (dmm::to_chrome_trace) writes
// the same format from a dmm::Trace.

#pragma once

#include <string>
#include <vector>

#include "telemetry/span_tracer.hpp"

namespace rapsim::telemetry {

/// Render SpanTracer spans as a Trace Event Format document. Each span
/// becomes a complete ("X") event with its id/parent in args; ts/dur are
/// nanoseconds rendered as microseconds. Every span is re-homed onto
/// the track (tid) of its ROOT span, so a request whose phases ran on a
/// connection thread AND a pool worker still renders as one nested
/// flame.
[[nodiscard]] std::string spans_to_chrome_trace(
    const std::vector<SpanRecord>& spans,
    const std::string& process_name = "rapsim spans");

}  // namespace rapsim::telemetry
