// The five worker-pool method families of the serve protocol, each a
// PURE function of its params:
//
//   certify   analyze::prove_worst_warp over explicit warp address lists
//   lint      analyze::lint_kernel over kernel IR text (the rapsim-lint
//             text format)
//   replay    replay::replay_trace of an inline trace (or a server-side
//             trace file) under one scheme draw — or, with params.map, a
//             synthesized permute-shift spec (analyze/synth.hpp)
//   advise    analyze::evaluate_kernel / evaluate_schemes scheme scoring
//   advise.synthesize
//             analyze::synthesize_mapping over kernel IR text: the full
//             layout-compiler search, returning the winning mapping spec,
//             its congestion certificate and the optimality witness
//
// prepare_method() validates params on the CALLER's thread (cheap,
// throws ServeError(kBadRequest) with a field-naming message) and
// returns the two things the service engine needs:
//
//   identity  the canonical cache/coalescing identity string. Scalars
//             and kernel/address content are embedded verbatim; a trace
//             rides as its replay::content_hash — the same identity the
//             campaign engine keys cells on — so a path-loaded and an
//             inline copy of the same stream share one cache entry.
//   run       the (possibly expensive) execution closure, run on a pool
//             worker; returns the serialized result body. It may consult
//             `cancelled` at phase boundaries and give up early by
//             throwing ServeError(kDeadlineExceeded) — cancellation is
//             cooperative, never preemptive.
//
// Purity is what licenses the response cache: same identity, same result
// body, byte for byte.

#pragma once

#include <functional>
#include <string>

#include "serve/protocol.hpp"
#include "telemetry/json.hpp"
#include "telemetry/span_tracer.hpp"

namespace rapsim::serve {

/// True when a worker may abandon the computation (all waiters' deadlines
/// expired, or the service is force-stopping).
using CancelCheck = std::function<bool()>;

/// Everything the engine hands a handler at execution time. `cancelled`
/// is always callable. `tracer`/`span_parent` let a handler nest its own
/// phase spans under the engine's execute:<method> span — tracer is null
/// (and span_parent kNoSpan) for untraced requests, and handlers MUST NOT
/// let tracing influence the result body (purity licenses the cache).
struct ExecContext {
  CancelCheck cancelled;
  telemetry::SpanTracer* tracer = nullptr;
  std::uint64_t span_parent = telemetry::kNoSpan;
};

struct MethodCall {
  std::string identity;
  std::function<std::string(const ExecContext& ctx)> run;
};

/// Validate and stage one worker-pool request. Throws
/// ServeError(kUnknownMethod) for a method not in the table and
/// ServeError(kBadRequest) for malformed params.
[[nodiscard]] MethodCall prepare_method(const std::string& method,
                                        const telemetry::JsonValue& params);

}  // namespace rapsim::serve
