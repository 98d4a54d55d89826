// serve::Client — the thin C++ client of the rapsim-served protocol.
//
// One connection, blocking request/response (the protocol allows
// pipelining, but every embedder so far — the CLI, the tests, the
// throughput bench — wants call-and-wait). Build params with the
// telemetry JsonWriter or pass a pre-serialized object; the response
// comes back both raw (the exact line, for byte-identity checks) and
// cracked into the envelope fields.

#pragma once

#include <cstdint>
#include <string>

#include "serve/socket.hpp"
#include "telemetry/json.hpp"

namespace rapsim::serve {

struct ClientResponse {
  bool ok = false;
  bool cached = false;
  bool coalesced = false;
  std::uint64_t elapsed_us = 0;
  int error_code = 0;           // 0 when ok
  std::string error_name;
  std::string error_message;
  std::string result_json;      // serialized result body ("" on error)
  std::string raw;              // the exact response line
};

struct CallOptions {
  std::uint64_t deadline_ms = 0;
  std::uint64_t debug_hold_ms = 0;
  std::string id;               // empty = no id member
};

class Client {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  explicit Client(const Endpoint& endpoint);

  /// Send `method` with `params_json` (a serialized object, or "" for
  /// none) and wait for the response. Throws std::runtime_error when
  /// the connection drops or the response line is not valid protocol
  /// JSON; server-side failures come back as ok=false, never throws.
  [[nodiscard]] ClientResponse call(const std::string& method,
                                    const std::string& params_json = "",
                                    const CallOptions& options = {});

  /// Send one raw request line verbatim and return the raw response
  /// line. The escape hatch for testing malformed requests.
  [[nodiscard]] std::string roundtrip(const std::string& request_line);

 private:
  Socket socket_;
  LineReader reader_;
};

/// Parse a response line into the envelope fields (shared by Client and
/// the CLI when reading server output). Throws std::invalid_argument on
/// non-protocol JSON.
[[nodiscard]] ClientResponse parse_response(const std::string& line);

}  // namespace rapsim::serve
