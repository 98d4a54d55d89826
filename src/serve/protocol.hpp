// serve wire protocol: newline-delimited JSON requests and responses.
//
// One request per line, one response per line, UTF-8, no intra-message
// newlines (the JSON escaper guarantees that). Requests:
//
//   {"id":"r1","method":"certify","params":{...},"deadline_ms":250}
//
//   id           optional string/integer echoed back verbatim (null when
//                absent) — correlation only, never interpreted.
//   method       certify | lint | replay | advise  (worker-pool methods)
//                stats | ping | shutdown           (control plane: answered
//                inline, never queued, never cached)
//   params       object, method-specific (see DESIGN.md §11).
//   deadline_ms  optional per-request budget; 0/absent = no deadline.
//   debug_hold_ms  optional test hook: the handler holds the worker for
//                this long (capped at kMaxDebugHoldMs, excluded from the
//                cache identity). Lets tests fill the pool deterministically.
//
// Success response (result is ALWAYS the last member, so the byte-exact
// result body of a cached reply is the suffix after `"result":`):
//
//   {"id":"r1","ok":true,"method":"certify","cached":false,
//    "coalesced":false,"elapsed_us":412,"result":{...}}
//
// Error response:
//
//   {"id":"r1","ok":false,"method":"certify",
//    "error":{"code":503,"name":"overloaded","message":"..."}}
//
// Error codes (HTTP-flavored, stable):
//   400 bad_request        malformed JSON / bad params / unparseable input
//   404 unknown_method     method not in the table above
//   408 deadline_exceeded  budget elapsed before or during execution
//   413 too_large          request line longer than kMaxRequestBytes
//   500 internal           handler threw something unexpected
//   503 overloaded         admission queue full — retry later (backpressure)

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "telemetry/json.hpp"

namespace rapsim::serve {

/// Ceiling on one request line; a client cannot make the server buffer
/// an unbounded message.
inline constexpr std::size_t kMaxRequestBytes = 8u << 20;
inline constexpr std::uint64_t kMaxDebugHoldMs = 10'000;

enum class ErrorCode : int {
  kBadRequest = 400,
  kUnknownMethod = 404,
  kDeadlineExceeded = 408,
  kTooLarge = 413,
  kInternal = 500,
  kOverloaded = 503,
};

[[nodiscard]] const char* error_name(ErrorCode code) noexcept;

/// Handler-level failure: carries the structured code the response
/// renderer needs. Everything a handler throws that is NOT a ServeError
/// is mapped to 500 internal.
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

struct Request {
  std::string id_json = "null";  // the id member re-serialized verbatim
  std::string method;
  telemetry::JsonValue params;        // object or null
  std::uint64_t deadline_ms = 0;      // 0 = none
  std::uint64_t debug_hold_ms = 0;    // test hook, see header comment
  /// NOT a wire field: the root span id the transport opened for this
  /// request (telemetry::kNoSpan = untraced). The engine parents its
  /// phase spans (admission, cache_lookup, queue_wait, execute) here.
  std::uint64_t trace_parent = 0;
};

/// Parse + validate one request line (already stripped of its '\n').
/// Throws ServeError(kBadRequest/kTooLarge) on anything malformed.
[[nodiscard]] Request parse_request(std::string_view line);

/// Render the success envelope around an already-serialized result body.
/// `result_body` is spliced in verbatim — for cache hits this is what
/// makes the replayed result byte-identical to the original.
[[nodiscard]] std::string make_success_response(const Request& request,
                                                bool cached, bool coalesced,
                                                std::uint64_t elapsed_us,
                                                const std::string& result_body);

/// Render the error envelope.
[[nodiscard]] std::string make_error_response(const Request& request,
                                              ErrorCode code,
                                              const std::string& message);

/// Error envelope for a line that never parsed into a Request.
[[nodiscard]] std::string make_parse_error_response(ErrorCode code,
                                                    const std::string& message);

}  // namespace rapsim::serve
