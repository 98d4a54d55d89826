// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` forms.
// Every bench binary shares the same conventions (--seed, --trials,
// --width, ...). Flags are stored by name. A flag written without `=`
// takes the next argument as its value unless the binary declared it
// boolean, so `replay --certify trace.rapt` keeps trace.rapt positional
// only when `certify` is declared. The rapsim-* tools and rapsim_profile
// declare their boolean flags and call reject_unknown() with the value
// flags their usage text documents (and reject_positional() when they
// take no positional argument), so a misspelt flag fails instead of
// falling back to its default. The bench binaries do not: they read the
// flags they know and ignore the rest, because CI's bench smoke loop
// passes one flag set (--trials/--seeds) to every bench.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.hpp"

namespace rapsim::util {

class CliArgs {
 public:
  /// `booleans` names the flags that never take the next argument as
  /// their value (`--name=value` still sets one).
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<std::string_view> booleans = {});

  /// Value of --name, if present (boolean flags yield "true").
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Throws std::invalid_argument("unknown flag --NAME") for the first
  /// flag (in name order) that neither `known` nor the declared booleans
  /// list.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

  /// Throws std::invalid_argument("unexpected argument ARG") for the
  /// first positional argument, in a binary that takes none: a stray
  /// word such as the `false` of `--races false` fails instead of being
  /// dropped.
  void reject_positional() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Comma-separated list flag, e.g. --widths=16,32,64.
  [[nodiscard]] std::vector<std::uint64_t> get_uint_list(
      const std::string& name, std::vector<std::uint64_t> fallback) const;

  /// Shared --format flag of the bench binaries: "ascii" (default),
  /// "markdown" or "csv". Unknown values (including "json") fall back to
  /// ascii — binaries with a JSON exporter check wants_json() first.
  [[nodiscard]] TableStyle get_table_style() const;

  /// True when --format=json was requested; such binaries emit one
  /// machine-readable document on stdout instead of tables.
  [[nodiscard]] bool wants_json() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> booleans_;
};

}  // namespace rapsim::util
