#include "serve/methods.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analyze/advisor.hpp"
#include "analyze/certificate.hpp"
#include "analyze/kernelir.hpp"
#include "analyze/lint.hpp"
#include "analyze/synth.hpp"
#include "core/factory.hpp"
#include "replay/campaign.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "telemetry/json.hpp"
#include "util/hash.hpp"

namespace rapsim::serve {

namespace {

using telemetry::JsonArray;
using telemetry::JsonValue;

// Input caps: one request must not be able to demand an absurd
// allocation before the handler notices.
constexpr std::size_t kMaxWarpLists = 1u << 16;
constexpr std::uint64_t kMaxAdviseDraws = 1u << 16;
// A synthesis draw is a full family-member evaluation, far costlier than
// an advise draw — cap it tighter.
constexpr std::uint64_t kMaxSynthDraws = 1u << 12;

[[noreturn]] void bad(const std::string& message) {
  throw ServeError(ErrorCode::kBadRequest, message);
}

const JsonValue* find_param(const JsonValue& params, const char* key) {
  return params.is_object() ? params.find(key) : nullptr;
}

std::string require_string(const JsonValue& params, const char* key) {
  const JsonValue* v = find_param(params, key);
  if (!v || !v->is_string()) bad(std::string("params.") + key +
                                 " must be a string");
  return v->as_string();
}

std::uint64_t get_u64(const JsonValue& params, const char* key,
                      std::uint64_t fallback) {
  const JsonValue* v = find_param(params, key);
  if (!v) return fallback;
  if (!v->is_integer() || v->as_integer() < 0) {
    bad(std::string("params.") + key + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v->as_integer());
}

bool get_bool(const JsonValue& params, const char* key, bool fallback) {
  const JsonValue* v = find_param(params, key);
  if (!v) return fallback;
  if (!v->is_bool()) bad(std::string("params.") + key + " must be a bool");
  return v->as_bool();
}

core::Scheme get_scheme(const JsonValue& params, const char* key = "scheme",
                        const char* fallback = "raw") {
  std::string name = fallback;
  if (const JsonValue* v = find_param(params, key)) {
    if (!v->is_string()) bad(std::string("params.") + key +
                             " must be a string");
    name = v->as_string();
  }
  const std::optional<core::Scheme> scheme = core::parse_scheme_name(name);
  if (!scheme) bad("unknown scheme '" + name + "' (use raw, ras, rap, pad)");
  return *scheme;
}

std::uint32_t get_width(const JsonValue& params, std::uint64_t fallback) {
  const std::uint64_t width = get_u64(params, "width", fallback);
  if (width == 0 || width > replay::kMaxTraceWidth) {
    bad("params.width must be in [1, " +
        std::to_string(replay::kMaxTraceWidth) + "]");
  }
  return static_cast<std::uint32_t>(width);
}

/// `addresses`: one warp's flat list of integers, or a list of such
/// lists (multi-warp). Every address must be < memory (when memory > 0).
std::vector<std::vector<std::uint64_t>> parse_warp_lists(
    const JsonValue& params, std::uint32_t width, std::uint64_t memory) {
  const JsonValue* v = find_param(params, "addresses");
  if (!v || !v->is_array() || v->as_array().empty()) {
    bad("params.addresses must be a non-empty array");
  }
  const JsonArray& outer = v->as_array();

  const auto parse_one = [&](const JsonArray& list) {
    if (list.empty() || list.size() > width) {
      bad("each warp's address list must have 1.." + std::to_string(width) +
          " entries");
    }
    std::vector<std::uint64_t> warp;
    warp.reserve(list.size());
    for (const JsonValue& a : list) {
      if (!a.is_integer() || a.as_integer() < 0) {
        bad("addresses must be non-negative integers");
      }
      const auto addr = static_cast<std::uint64_t>(a.as_integer());
      if (memory && addr >= memory) {
        bad("address " + std::to_string(addr) + " outside memory_size " +
            std::to_string(memory));
      }
      warp.push_back(addr);
    }
    return warp;
  };

  std::vector<std::vector<std::uint64_t>> warps;
  if (outer.front().is_array()) {
    if (outer.size() > kMaxWarpLists) bad("too many warp lists");
    warps.reserve(outer.size());
    for (const JsonValue& inner : outer) {
      if (!inner.is_array()) bad("params.addresses mixes warps and scalars");
      warps.push_back(parse_one(inner.as_array()));
    }
  } else {
    warps.push_back(parse_one(outer));
  }
  return warps;
}

std::string warps_canonical(
    const std::vector<std::vector<std::uint64_t>>& warps) {
  std::ostringstream out;
  for (std::size_t w = 0; w < warps.size(); ++w) {
    if (w) out << ';';
    for (std::size_t i = 0; i < warps[w].size(); ++i) {
      if (i) out << ',';
      out << warps[w][i];
    }
  }
  return out.str();
}

// ---------------------------------------------------------------- certify

MethodCall prepare_certify(const JsonValue& params) {
  const core::Scheme scheme = get_scheme(params);
  const std::uint32_t width = get_width(params, 32);
  std::uint64_t memory = get_u64(params, "memory_size", 0);
  auto warps = parse_warp_lists(params, width, memory);
  if (memory == 0) {
    std::uint64_t max_addr = 0;
    for (const auto& warp : warps) {
      for (const std::uint64_t a : warp) max_addr = std::max(max_addr, a);
    }
    // Round up to whole rows so the derived geometry is well-formed.
    memory = ((max_addr / width) + 1) * width;
  }

  MethodCall call;
  call.identity = std::string("certify\n") + core::scheme_name(scheme) +
                  '\n' + std::to_string(width) + '\n' +
                  std::to_string(memory) + '\n' + warps_canonical(warps);
  call.run = [scheme, width, memory,
              warps = std::move(warps)](const ExecContext&) {
    const analyze::CongestionCertificate certificate =
        analyze::prove_worst_warp(warps, width, memory, scheme);
    telemetry::JsonWriter json;
    json.begin_object();
    json.kv("scheme", core::scheme_name(scheme));
    json.kv("width", static_cast<std::uint64_t>(width));
    json.kv("memory_size", memory);
    json.kv("warps", static_cast<std::uint64_t>(warps.size()));
    json.key("certificate").raw_value(certificate.to_json());
    json.end_object();
    return json.str();
  };
  return call;
}

// ------------------------------------------------------------------- lint

MethodCall prepare_lint(const JsonValue& params) {
  const std::string text = require_string(params, "kernel");
  const core::Scheme scheme = get_scheme(params);
  const std::uint32_t width = get_width(params, 32);

  analyze::KernelDesc kernel;
  try {
    kernel = analyze::parse_kernel_text(text, width);
  } catch (const std::invalid_argument& e) {
    bad(std::string("kernel: ") + e.what());
  }

  analyze::LintOptions options;
  options.races = get_bool(params, "races", true);

  MethodCall call;
  call.identity = std::string("lint\n") + core::scheme_name(scheme) + '\n' +
                  std::to_string(width) + '\n' +
                  (options.races ? "races\n" : "no-races\n") + text;
  call.run = [scheme, options, kernel = std::move(kernel)](const ExecContext&) {
    return analyze::lint_report_json(
        analyze::lint_kernel(kernel, scheme, options));
  };
  return call;
}

// ----------------------------------------------------------------- replay

MethodCall prepare_replay(const JsonValue& params) {
  const core::Scheme scheme = get_scheme(params);
  const std::uint64_t seed = get_u64(params, "seed", 1);
  const std::uint64_t latency = get_u64(params, "latency", 1);
  if (latency == 0 || latency > 1u << 16) bad("params.latency out of range");
  const bool certify = get_bool(params, "certify", false);

  // Optional synthesized-mapping override: params.map is a permute-shift
  // spec (analyze::SynthMapping::parse_spec); exclusive with a non-default
  // params.scheme. This is how a mapping minted by advise.synthesize gets
  // confirmed against a captured trace on the full DMM.
  std::optional<analyze::SynthMapping> synth_mapping;
  if (const JsonValue* map_spec = find_param(params, "map")) {
    if (!map_spec->is_string()) bad("params.map must be a string");
    if (find_param(params, "scheme")) {
      bad("params.map and params.scheme are exclusive");
    }
    try {
      synth_mapping = analyze::SynthMapping::parse_spec(map_spec->as_string());
    } catch (const std::invalid_argument& e) {
      bad(std::string("map: ") + e.what());
    }
  }

  const JsonValue* inline_text = find_param(params, "trace");
  const JsonValue* path = find_param(params, "trace_path");
  if (!!inline_text == !!path) {
    bad("exactly one of params.trace (inline text) and params.trace_path "
        "is required");
  }
  replay::AccessTrace trace;
  try {
    if (inline_text) {
      if (!inline_text->is_string()) bad("params.trace must be a string");
      trace = replay::parse_trace(inline_text->as_string());
    } else {
      if (!path->is_string()) bad("params.trace_path must be a string");
      trace = replay::load_trace(path->as_string());
    }
    trace.validate();
  } catch (const std::invalid_argument& e) {
    bad(std::string("trace: ") + e.what());
  } catch (const std::runtime_error& e) {
    bad(std::string("trace: ") + e.what());
  }

  // The trace rides in the identity as its content hash — the same
  // identity the campaign engine keys cells on — so an inline and a
  // path-loaded copy of one stream share a cache entry.
  const std::uint64_t trace_hash = replay::content_hash(trace);

  if (synth_mapping) {
    if (certify) {
      bad("params.certify is not supported with params.map (the spec "
          "carries its own certificate from advise.synthesize)");
    }
    if (synth_mapping->width != trace.header.width) {
      bad("map width " + std::to_string(synth_mapping->width) +
          " != trace width " + std::to_string(trace.header.width));
    }
  }

  MethodCall call;
  call.identity = std::string("replay\n") + util::hex64(trace_hash) + '\n' +
                  (synth_mapping ? synth_mapping->spec()
                                 : std::string(core::scheme_name(scheme))) +
                  '\n' + std::to_string(seed) + '\n' +
                  std::to_string(latency) + '\n' + (certify ? "certify" : "-");
  call.run = [scheme, seed, latency, certify, trace_hash,
              synth_mapping = std::move(synth_mapping),
              trace = std::move(trace)](const ExecContext& ctx) {
    const std::uint32_t width = trace.header.width;
    const std::uint64_t rows =
        (trace.header.memory_size + width - 1) / width;
    const std::unique_ptr<core::AddressMap> map =
        synth_mapping
            ? analyze::make_synth_map(*synth_mapping,
                                      trace.header.memory_size)
            : core::make_matrix_map(scheme, width, rows, seed);
    if (ctx.cancelled()) {
      throw ServeError(ErrorCode::kDeadlineExceeded,
                       "cancelled before simulation");
    }
    replay::ReplayOptions options;
    options.latency = static_cast<std::uint32_t>(latency);
    // Nest the replay engine's own spans under the engine's
    // execute:<method> span: replay:lower (validating and indexing the
    // trace) and replay:execute (the run).
    options.tracer = ctx.tracer;
    options.trace_parent = ctx.span_parent;
    const replay::ReplayResult result =
        replay::replay_trace(trace, *map, options);

    telemetry::JsonWriter json;
    json.begin_object();
    json.kv("trace_hash", std::string_view(util::hex64(trace_hash)));
    json.kv("scheme", synth_mapping ? core::scheme_name(core::Scheme::kSynth)
                                    : core::scheme_name(scheme));
    if (synth_mapping) json.kv("map", synth_mapping->spec());
    json.kv("width", static_cast<std::uint64_t>(width));
    json.kv("latency", latency);
    json.kv("seed", seed);
    json.kv("time", result.stats.time);
    json.kv("pipeline_slots", result.stats.total_stages);
    json.kv("dispatches", result.stats.dispatches);
    json.kv("max_congestion",
            static_cast<std::uint64_t>(result.stats.max_congestion));
    json.kv("avg_congestion", result.stats.avg_congestion);
    if (certify) {
      json.key("certificate")
          .raw_value(replay::certify_trace(trace, scheme).to_json());
    }
    json.end_object();
    return json.str();
  };
  return call;
}

// ----------------------------------------------------------------- advise

void render_advice(telemetry::JsonWriter& json, const analyze::Advice& advice) {
  json.key("scores").begin_array();
  for (std::size_t i = 0; i < advice.scores.size(); ++i) {
    const analyze::SchemeScore& score = advice.scores[i];
    json.begin_object();
    json.kv("scheme", core::scheme_name(score.scheme));
    json.kv("mean_congestion", score.mean_congestion);
    json.kv("max_congestion", score.max_congestion);
    json.kv("random_words", score.random_words);
    if (i < advice.certificates.size()) {
      json.key("certificate").raw_value(advice.certificates[i].to_json());
    }
    json.end_object();
  }
  json.end_array();
  json.kv("recommended", core::scheme_name(advice.recommended));
  json.kv("rationale", std::string_view(advice.rationale));
}

MethodCall prepare_advise(const JsonValue& params) {
  const std::uint64_t draws = get_u64(params, "draws", 32);
  if (draws == 0 || draws > kMaxAdviseDraws) bad("params.draws out of range");
  const std::uint64_t seed = get_u64(params, "seed", 1);

  const bool has_kernel = find_param(params, "kernel") != nullptr;
  const bool has_addresses = find_param(params, "addresses") != nullptr;
  if (has_kernel == has_addresses) {
    bad("exactly one of params.kernel (IR text) and params.addresses is "
        "required");
  }

  MethodCall call;
  if (has_kernel) {
    const std::string text = require_string(params, "kernel");
    const std::uint32_t width = get_width(params, 32);
    analyze::KernelDesc kernel;
    try {
      kernel = analyze::parse_kernel_text(text, width);
    } catch (const std::invalid_argument& e) {
      bad(std::string("kernel: ") + e.what());
    }
    call.identity = std::string("advise\nkernel\n") + std::to_string(width) +
                    '\n' + std::to_string(draws) + '\n' +
                    std::to_string(seed) + '\n' + text;
    call.run = [draws, seed, kernel = std::move(kernel)](const ExecContext&) {
      const analyze::Advice advice = analyze::evaluate_kernel(
          kernel, static_cast<std::uint32_t>(draws), seed);
      telemetry::JsonWriter json;
      json.begin_object();
      json.kv("kernel", std::string_view(kernel.name));
      json.kv("width", static_cast<std::uint64_t>(kernel.width));
      json.kv("rows", kernel.rows);
      json.kv("draws", draws);
      json.kv("seed", seed);
      render_advice(json, advice);
      json.end_object();
      return json.str();
    };
    return call;
  }

  const std::uint32_t width = get_width(params, 32);
  const std::uint64_t rows = get_u64(params, "rows", 0);
  if (rows == 0) bad("params.rows is required with params.addresses");
  auto warps = parse_warp_lists(params, width, rows * width);
  call.identity = std::string("advise\naddresses\n") + std::to_string(width) +
                  '\n' + std::to_string(rows) + '\n' + std::to_string(draws) +
                  '\n' + std::to_string(seed) + '\n' +
                  warps_canonical(warps);
  call.run = [width, rows, draws, seed,
              warps = std::move(warps)](const ExecContext&) {
    const analyze::Advice advice = analyze::evaluate_schemes(
        warps, width, rows, static_cast<std::uint32_t>(draws), seed);
    telemetry::JsonWriter json;
    json.begin_object();
    json.kv("width", static_cast<std::uint64_t>(width));
    json.kv("rows", rows);
    json.kv("draws", draws);
    json.kv("seed", seed);
    render_advice(json, advice);
    json.end_object();
    return json.str();
  };
  return call;
}

// ------------------------------------------------------- advise.synthesize

MethodCall prepare_synthesize(const JsonValue& params) {
  const std::string text = require_string(params, "kernel");
  const std::uint32_t width = get_width(params, 32);
  const std::uint64_t draws = get_u64(params, "draws", 48);
  if (draws == 0 || draws > kMaxSynthDraws) bad("params.draws out of range");
  const std::uint64_t seed = get_u64(params, "seed", 1);
  const std::uint64_t digits = get_u64(params, "digits", analyze::kMaxDigits);
  if (digits == 0 || digits > analyze::kMaxDigits) {
    bad("params.digits must be in [1, " +
        std::to_string(analyze::kMaxDigits) + "]");
  }

  analyze::KernelDesc kernel;
  try {
    kernel = analyze::parse_kernel_text(text, width);
  } catch (const std::invalid_argument& e) {
    bad(std::string("kernel: ") + e.what());
  }

  MethodCall call;
  call.identity = std::string("advise.synthesize\n") + std::to_string(width) +
                  '\n' + std::to_string(digits) + '\n' +
                  std::to_string(draws) + '\n' + std::to_string(seed) + '\n' +
                  text;
  call.run = [draws, seed, digits,
              kernel = std::move(kernel)](const ExecContext& ctx) {
    analyze::SynthesisOptions options;
    options.max_digits = static_cast<std::uint32_t>(digits);
    options.random_draws = draws;
    options.seed = seed;
    // The search polls this between candidate evaluations, so a request
    // whose deadline lapses mid-search sheds promptly.
    options.cancelled = [&ctx] {
      if (ctx.cancelled()) {
        throw ServeError(ErrorCode::kDeadlineExceeded,
                         "cancelled during synthesis search");
      }
      return false;
    };
    try {
      return analyze::synthesize_mapping(kernel, options).to_json();
    } catch (const std::invalid_argument& e) {
      // Unsynthesizable kernel (out-of-bounds accesses, ...): the
      // request is at fault, not the server.
      throw ServeError(ErrorCode::kBadRequest,
                       std::string("kernel: ") + e.what());
    }
  };
  return call;
}

}  // namespace

MethodCall prepare_method(const std::string& method, const JsonValue& params) {
  if (method == "certify") return prepare_certify(params);
  if (method == "lint") return prepare_lint(params);
  if (method == "replay") return prepare_replay(params);
  if (method == "advise") return prepare_advise(params);
  if (method == "advise.synthesize") return prepare_synthesize(params);
  throw ServeError(ErrorCode::kUnknownMethod,
                   "unknown method '" + method +
                       "' (certify, lint, replay, advise, "
                       "advise.synthesize, stats, ping, shutdown)");
}

}  // namespace rapsim::serve
