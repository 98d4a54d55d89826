// rapsim-client — command-line client of the rapsim-served daemon.
//
// One subcommand per protocol method; params are assembled from flags,
// files are read CLIENT-side and shipped inline (the daemon never needs
// the client's filesystem):
//
//   rapsim-client ping
//   rapsim-client stats
//   rapsim-client certify --addresses="0,32,64" --scheme=rap --width=32
//   rapsim-client certify --addresses="0,1;0,32" --memory=2048
//   rapsim-client lint --file=examples/naive_transpose.kernel --scheme=raw
//   rapsim-client replay --trace=trace.rat --scheme=ras --seed=7
//   rapsim-client replay --trace=trace.rat --map="ps1:rot:w=32:..."
//   rapsim-client advise --file=k.kernel --draws=64
//   rapsim-client synthesize --file=k.kernel --draws=48 --digits=2
//   rapsim-client raw '{"method":"ping"}'
//   rapsim-client shutdown
//
// Shared flags: --socket=PATH (default rapsim-served.sock) or
// --tcp-port=N; --deadline-ms=N; --id=STRING; --verbose (print the full
// response envelope instead of just the result body). Any flag the usage
// text does not list is a usage error.
//
// --addresses uses ';' between warps and ',' within one:  "0,1,2;32,33".
//
// Exit status: 0 on an ok response, 1 on a server error response or a
// transport failure, 2 on usage errors.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"

namespace {

using namespace rapsim;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// "0,1,2;32,33" -> [[0,1,2],[32,33]] written into `json` under the
/// "addresses" key (always the nested form; the server accepts both).
void write_addresses(telemetry::JsonWriter& json, const std::string& spec) {
  json.key("addresses").begin_array();
  std::istringstream warps(spec);
  std::string warp;
  while (std::getline(warps, warp, ';')) {
    json.begin_array();
    std::istringstream entries(warp);
    std::string entry;
    while (std::getline(entries, entry, ',')) {
      std::size_t used = 0;
      const std::uint64_t addr = std::stoull(entry, &used);
      if (used != entry.size()) {
        throw std::invalid_argument("bad address '" + entry + "'");
      }
      json.value(addr);
    }
    json.end_array();
  }
  json.end_array();
}

void common_scalars(telemetry::JsonWriter& json, const util::CliArgs& args) {
  if (const auto scheme = args.get("scheme")) {
    json.kv("scheme", std::string_view(*scheme));
  }
  if (const auto width = args.get("width")) {
    json.kv("width", args.get_uint("width", 32));
  }
  if (const auto seed = args.get("seed")) {
    json.kv("seed", args.get_uint("seed", 1));
  }
}

std::string build_params(const std::string& method,
                         const util::CliArgs& args) {
  telemetry::JsonWriter json;
  json.begin_object();
  common_scalars(json, args);
  if (method == "certify") {
    if (const auto memory = args.get("memory")) {
      json.kv("memory_size", args.get_uint("memory", 0));
    }
    const auto spec = args.get("addresses");
    if (!spec) throw std::invalid_argument("certify needs --addresses");
    write_addresses(json, *spec);
  } else if (method == "lint") {
    const auto file = args.get("file");
    if (!file) throw std::invalid_argument("lint needs --file=KERNEL");
    json.kv("kernel", std::string_view(read_file(*file)));
  } else if (method == "replay") {
    const auto trace = args.get("trace");
    if (!trace) throw std::invalid_argument("replay needs --trace=FILE");
    json.kv("trace", std::string_view(read_file(*trace)));
    if (const auto latency = args.get("latency")) {
      json.kv("latency", args.get_uint("latency", 1));
    }
    if (const auto map = args.get("map")) {
      json.kv("map", std::string_view(*map));
    }
    if (args.get_bool("certify", false)) json.kv("certify", true);
  } else if (method == "synthesize") {
    const auto file = args.get("file");
    if (!file) throw std::invalid_argument("synthesize needs --file=KERNEL");
    json.kv("kernel", std::string_view(read_file(*file)));
    if (const auto draws = args.get("draws")) {
      json.kv("draws", args.get_uint("draws", 48));
    }
    if (const auto digits = args.get("digits")) {
      json.kv("digits", args.get_uint("digits", 3));
    }
  } else if (method == "advise") {
    if (const auto draws = args.get("draws")) {
      json.kv("draws", args.get_uint("draws", 32));
    }
    const auto file = args.get("file");
    const auto spec = args.get("addresses");
    if (!!file == !!spec) {
      throw std::invalid_argument(
          "advise needs exactly one of --file=KERNEL and --addresses");
    }
    if (file) {
      json.kv("kernel", std::string_view(read_file(*file)));
    } else {
      if (const auto rows = args.get("rows")) {
        json.kv("rows", args.get_uint("rows", 0));
      }
      write_addresses(json, *spec);
    }
  }
  json.end_object();
  return json.str();
}

int usage() {
  std::cerr
      << "usage: rapsim-client SUBCOMMAND [flags]\n"
         "  subcommands: ping stats shutdown certify lint replay advise\n"
         "               synthesize (-> advise.synthesize)\n"
         "               raw '<request json>'\n"
         "  transport:   --socket=PATH | --tcp-port=N [--tcp-host=H]\n"
         "  envelope:    --deadline-ms=N --id=STRING --verbose\n"
         "  params:      --addresses=LIST --memory=N --rows=N --file=PATH\n"
         "               --trace=PATH --scheme=S --width=W --seed=N\n"
         "               --latency=L --map=SPEC --certify --draws=N\n"
         "               --digits=N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv, {"verbose", "certify"});
  if (args.positional().empty()) return usage();
  const std::string method = args.positional().front();

  serve::Endpoint endpoint;
  if (args.get("tcp-port")) {
    endpoint.host = args.get_string("tcp-host", "127.0.0.1");
    endpoint.port =
        static_cast<std::uint16_t>(args.get_uint("tcp-port", 0));
  } else {
    endpoint.path = args.get_string("socket", "rapsim-served.sock");
  }

  try {
    args.reject_unknown({"socket", "tcp-port", "tcp-host", "deadline-ms",
                         "id", "addresses", "memory", "rows", "file",
                         "trace", "scheme", "width", "seed", "latency",
                         "map", "draws", "digits"});
    serve::Client client(endpoint);

    if (method == "raw") {
      if (args.positional().size() < 2) return usage();
      std::cout << client.roundtrip(args.positional()[1]) << "\n";
      return 0;
    }

    const bool known =
        method == "ping" || method == "stats" || method == "shutdown" ||
        method == "certify" || method == "lint" || method == "replay" ||
        method == "advise" || method == "synthesize";
    if (!known) return usage();

    serve::CallOptions options;
    options.deadline_ms = args.get_uint("deadline-ms", 0);
    options.id = args.get_string("id", "");

    // The CLI spells the method "synthesize"; on the wire it is the
    // advise.synthesize pool method.
    const std::string wire_method =
        method == "synthesize" ? "advise.synthesize" : method;
    const serve::ClientResponse response =
        client.call(wire_method, build_params(method, args), options);
    if (args.get_bool("verbose", false)) {
      std::cout << response.raw << "\n";
    } else if (response.ok) {
      std::cout << response.result_json << "\n";
    } else {
      std::cerr << "error " << response.error_code << " "
                << response.error_name << ": " << response.error_message
                << "\n";
      return 1;
    }
    return response.ok ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "rapsim-client: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "rapsim-client: " << e.what() << "\n";
    return 1;
  }
}
