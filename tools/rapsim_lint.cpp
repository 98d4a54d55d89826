// rapsim-lint — static bank-congestion lint driver.
//
// Lints kernels described in the loop-nest IR: the built-in catalog
// (builtin_kernels.hpp) and user kernels in the text format
// (analyze/kernelir.hpp; see DESIGN.md "rapsim-lint"). For every access
// site the symbolic passes certify the WORST loop binding and the driver
// reports diagnostics with fix-it suggestions.
//
//   rapsim-lint                          # lint every built-in at w=32, RAW
//   rapsim-lint --list-kernels           # catalog names (alias: --list)
//   rapsim-lint --list-workloads         # programs, then IR-only kernels
//   rapsim-lint --kernel=transpose-crsw --scheme=rap
//   rapsim-lint --file=examples/naive_transpose.kernel --format=json
//   rapsim-lint --program=examples/shearsort.rvm   # lint a VM program
//   rapsim-lint --width=64 --fail-on=warning
//   rapsim-lint --kernel=transpose-crsw --synthesize
//
// --synthesize runs the layout synthesizer (analyze/synth.hpp) on every
// linted kernel: warnings gain a SYNTHESIZE fix-it when the synthesized
// permute-shift mapping provably beats the site's bound, and the full
// SynthesisResult (mapping spec, certificate, optimality witness) is
// attached to each report ("synthesis" block in JSON). --synth-draws and
// --synth-seed tune the random corner of the search.
//
// Exit status: 0 when no diagnostic reaches --fail-on (error|warning|
// never; default error), 1 otherwise, 2 on usage errors.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/kernelir.hpp"
#include "analyze/lint.hpp"
#include "builtin_kernels.hpp"
#include "core/mapping.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "vm/assembler.hpp"
#include "vm/extract.hpp"
#include "workloads/catalog.hpp"

namespace {

using namespace rapsim;

core::Scheme parse_scheme(const std::string& name) {
  if (const auto scheme = core::parse_scheme_name(name)) return *scheme;
  throw std::invalid_argument("unknown scheme '" + name +
                              "' (expected raw, pad, ras or rap)");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    const auto width =
        static_cast<std::uint32_t>(args.get_uint("width", 32));
    const core::Scheme scheme =
        parse_scheme(args.get_string("scheme", "raw"));
    const std::string fail_on = args.get_string("fail-on", "error");
    if (fail_on != "error" && fail_on != "warning" && fail_on != "never") {
      throw std::invalid_argument(
          "--fail-on must be error, warning or never");
    }

    if (args.get_bool("list", false) ||
        args.get_bool("list-kernels", false)) {
      for (const auto& kernel : tools::builtin_kernels(width)) {
        std::cout << kernel.name << "\n";
      }
      return 0;
    }
    if (args.get_bool("list-workloads", false)) {
      // The catalog split by form: kernels extracted from the workload
      // programs (workloads/catalog.hpp), then the IR-only ones.
      const auto programs = workloads::workload_programs(width);
      const auto is_program = [&](const std::string& name) {
        return std::any_of(programs.begin(), programs.end(),
                           [&](const workloads::Workload& entry) {
                             return entry.name == name;
                           });
      };
      const auto catalog = tools::builtin_kernels(width);
      for (const bool program : {true, false}) {
        std::cout << (program ? "program:\n" : "ir-only:\n");
        for (const auto& kernel : catalog) {
          if (is_program(kernel.name) == program) {
            std::cout << "  " << kernel.name << "\n";
          }
        }
      }
      return 0;
    }

    analyze::LintOptions options;
    options.synthesize = args.get_bool("synthesize", false);
    options.synth.random_draws = args.get_uint("synth-draws", 48);
    options.synth.seed = args.get_uint("synth-seed", 1);
    options.races = args.get_bool("races", true);  // --races=false to skip

    std::vector<analyze::KernelDesc> kernels;
    if (const auto file = args.get("file")) {
      kernels.push_back(analyze::parse_kernel_text(read_file(*file), width));
    } else if (const auto program = args.get("program")) {
      // Assemble + extract loop-nest IR from a `.rvm` VM program. When the
      // extraction cannot name every executing warp the congestion passes
      // stay sound but race attribution would be unsound — skip it.
      vm::ExtractResult extracted =
          vm::extract_kernel(vm::assemble(read_file(*program), width));
      if (!extracted.complete) {
        for (const std::string& note : extracted.notes) {
          std::cerr << "rapsim-lint: note: " << note << "\n";
        }
        std::cerr << "rapsim-lint: extraction incomplete; race analysis "
                     "skipped\n";
        options.races = false;
      }
      kernels.push_back(std::move(extracted.kernel));
    } else if (const auto name = args.get("kernel")) {
      // builtin_kernel's unknown-name error enumerates the catalog.
      kernels.push_back(tools::builtin_kernel(*name, width));
    } else {
      kernels = tools::builtin_kernels(width);
    }

    std::vector<analyze::LintReport> reports;
    reports.reserve(kernels.size());
    for (const auto& kernel : kernels) {
      reports.push_back(analyze::lint_kernel(kernel, scheme, options));
    }

    std::ostringstream out;
    if (args.wants_json()) {
      telemetry::JsonWriter json;
      json.begin_object();
      json.kv("tool", "rapsim-lint");
      json.kv("version", 1);
      json.kv("width", static_cast<std::uint64_t>(width));
      json.kv("scheme", core::scheme_name(scheme));
      json.key("reports");
      json.begin_array();
      for (const auto& report : reports) {
        json.raw_value(analyze::lint_report_json(report));
      }
      json.end_array();
      json.end_object();
      out << json.str() << "\n";
    } else {
      for (const auto& report : reports) {
        out << analyze::lint_report_text(report);
      }
    }

    if (const auto path = args.get("out")) {
      std::ofstream file(*path);
      if (!file) throw std::invalid_argument("cannot write '" + *path + "'");
      file << out.str();
    } else {
      std::cout << out.str();
    }

    analyze::Severity worst = analyze::Severity::kInfo;
    for (const auto& report : reports) {
      if (static_cast<int>(report.severity()) > static_cast<int>(worst)) {
        worst = report.severity();
      }
    }
    if (fail_on == "error" && worst == analyze::Severity::kError) return 1;
    if (fail_on == "warning" && worst != analyze::Severity::kInfo) return 1;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rapsim-lint: " << error.what() << "\n";
    return 2;
  }
}
