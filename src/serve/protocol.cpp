#include "serve/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace rapsim::serve {

const char* error_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kOverloaded: return "overloaded";
  }
  return "unknown";
}

Request parse_request(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    throw ServeError(ErrorCode::kTooLarge,
                     "request line exceeds " +
                         std::to_string(kMaxRequestBytes) + " bytes");
  }
  telemetry::JsonValue doc;
  try {
    doc = telemetry::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw ServeError(ErrorCode::kBadRequest, e.what());
  }
  if (!doc.is_object()) {
    throw ServeError(ErrorCode::kBadRequest, "request must be a JSON object");
  }

  Request request;
  if (const telemetry::JsonValue* id = doc.find("id")) {
    if (!id->is_string() && !id->is_integer() && !id->is_null()) {
      throw ServeError(ErrorCode::kBadRequest,
                       "id must be a string, integer or null");
    }
    request.id_json = id->serialize();
  }

  const telemetry::JsonValue* method = doc.find("method");
  if (!method || !method->is_string() || method->as_string().empty()) {
    throw ServeError(ErrorCode::kBadRequest,
                     "method must be a non-empty string");
  }
  request.method = method->as_string();

  if (const telemetry::JsonValue* params = doc.find("params")) {
    if (!params->is_object() && !params->is_null()) {
      throw ServeError(ErrorCode::kBadRequest,
                       "params must be an object when present");
    }
    request.params = *params;
  }

  const auto read_u64 = [&](const char* key, std::uint64_t cap) {
    const telemetry::JsonValue* v = doc.find(key);
    if (!v) return std::uint64_t{0};
    if (!v->is_integer() || v->as_integer() < 0) {
      throw ServeError(ErrorCode::kBadRequest,
                       std::string(key) + " must be a non-negative integer");
    }
    const auto n = static_cast<std::uint64_t>(v->as_integer());
    return cap ? std::min(n, cap) : n;
  };
  request.deadline_ms = read_u64("deadline_ms", 0);
  request.debug_hold_ms = read_u64("debug_hold_ms", kMaxDebugHoldMs);

  // Reject unknown envelope members so typos fail loudly instead of
  // silently changing meaning (e.g. "deadline" vs "deadline_ms").
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (key != "id" && key != "method" && key != "params" &&
        key != "deadline_ms" && key != "debug_hold_ms") {
      throw ServeError(ErrorCode::kBadRequest,
                       "unknown request member \"" + key + "\"");
    }
  }
  return request;
}

namespace {

void open_envelope(telemetry::JsonWriter& json, const std::string& id_json,
                   bool ok, const std::string& method) {
  json.begin_object();
  json.key("id").raw_value(id_json);
  json.kv("ok", ok);
  if (!method.empty()) json.kv("method", std::string_view(method));
}

}  // namespace

std::string make_success_response(const Request& request, bool cached,
                                  bool coalesced, std::uint64_t elapsed_us,
                                  const std::string& result_body) {
  telemetry::JsonWriter json;
  open_envelope(json, request.id_json, true, request.method);
  json.kv("cached", cached);
  json.kv("coalesced", coalesced);
  json.kv("elapsed_us", elapsed_us);
  json.key("result").raw_value(result_body);
  json.end_object();
  return json.str();
}

std::string make_error_response(const Request& request, ErrorCode code,
                                const std::string& message) {
  telemetry::JsonWriter json;
  open_envelope(json, request.id_json, false, request.method);
  json.key("error").begin_object();
  json.kv("code", static_cast<std::int64_t>(code));
  json.kv("name", error_name(code));
  json.kv("message", std::string_view(message));
  json.end_object();
  json.end_object();
  return json.str();
}

std::string make_parse_error_response(ErrorCode code,
                                      const std::string& message) {
  Request anonymous;
  return make_error_response(anonymous, code, message);
}

}  // namespace rapsim::serve
