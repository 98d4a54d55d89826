#include "serve/client.hpp"

#include <stdexcept>

#include "serve/protocol.hpp"
#include "telemetry/json.hpp"

namespace rapsim::serve {

Client::Client(const Endpoint& endpoint)
    : socket_(connect_to(endpoint)), reader_(socket_) {}

std::string Client::roundtrip(const std::string& request_line) {
  if (!write_all(socket_, request_line + "\n")) {
    throw std::runtime_error("serve client: connection lost while sending");
  }
  std::string line;
  for (;;) {
    const LineReader::Status status =
        reader_.read_line(line, /*timeout_ms=*/60'000, kMaxRequestBytes);
    if (status == LineReader::Status::kLine) return line;
    if (status == LineReader::Status::kClosed) {
      throw std::runtime_error(
          "serve client: connection closed before a response arrived");
    }
    // kTimeout: keep waiting — the deadline, if any, is the server's to
    // enforce; a 408 response will arrive when it fires.
  }
}

ClientResponse Client::call(const std::string& method,
                            const std::string& params_json,
                            const CallOptions& options) {
  telemetry::JsonWriter json;
  json.begin_object();
  if (!options.id.empty()) json.kv("id", std::string_view(options.id));
  json.kv("method", std::string_view(method));
  if (!params_json.empty()) json.key("params").raw_value(params_json);
  if (options.deadline_ms) json.kv("deadline_ms", options.deadline_ms);
  if (options.debug_hold_ms) json.kv("debug_hold_ms", options.debug_hold_ms);
  json.end_object();
  return parse_response(roundtrip(json.str()));
}

ClientResponse parse_response(const std::string& line) {
  const telemetry::JsonValue doc = telemetry::parse_json(line);
  if (!doc.is_object()) {
    throw std::invalid_argument("serve response is not a JSON object");
  }
  ClientResponse response;
  response.raw = line;
  const telemetry::JsonValue* ok = doc.find("ok");
  if (!ok || !ok->is_bool()) {
    throw std::invalid_argument("serve response lacks the ok member");
  }
  response.ok = ok->as_bool();
  if (const telemetry::JsonValue* cached = doc.find("cached")) {
    response.cached = cached->is_bool() && cached->as_bool();
  }
  if (const telemetry::JsonValue* coalesced = doc.find("coalesced")) {
    response.coalesced = coalesced->is_bool() && coalesced->as_bool();
  }
  if (const telemetry::JsonValue* elapsed = doc.find("elapsed_us")) {
    if (elapsed->is_integer() && elapsed->as_integer() >= 0) {
      response.elapsed_us = static_cast<std::uint64_t>(elapsed->as_integer());
    }
  }
  if (response.ok) {
    if (!doc.find("result")) {
      throw std::invalid_argument("ok serve response lacks result");
    }
    // result is by protocol the LAST envelope member: take its exact
    // bytes from the raw line (not a re-serialization), so cache-hit
    // byte-identity is observable through the client.
    const std::size_t marker = line.find("\"result\":");
    if (marker == std::string::npos || line.back() != '}') {
      throw std::invalid_argument("ok serve response misplaces result");
    }
    response.result_json =
        line.substr(marker + 9, line.size() - marker - 10);
  } else {
    const telemetry::JsonValue* error = doc.find("error");
    if (!error || !error->is_object()) {
      throw std::invalid_argument("error serve response lacks error object");
    }
    if (const telemetry::JsonValue* code = error->find("code"); code &&
        code->is_integer()) {
      response.error_code = static_cast<int>(code->as_integer());
    }
    if (const telemetry::JsonValue* name = error->find("name"); name &&
        name->is_string()) {
      response.error_name = name->as_string();
    }
    if (const telemetry::JsonValue* message = error->find("message");
        message && message->is_string()) {
      response.error_message = message->as_string();
    }
  }
  return response;
}

}  // namespace rapsim::serve
