#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rapsim::util {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> booleans)
    : booleans_(booleans.begin(), booleans.end()) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0 &&
               std::find(booleans_.begin(), booleans_.end(), arg) ==
                   booleans_.end()) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto v = get(name);
  return v ? std::strtoll(v->c_str(), nullptr, 10) : fallback;
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                                std::uint64_t fallback) const {
  const auto v = get(name);
  return v ? std::strtoull(v->c_str(), nullptr, 10) : fallback;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  return v ? std::strtod(v->c_str(), nullptr) : fallback;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes";
}

void CliArgs::reject_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end() &&
        std::find(booleans_.begin(), booleans_.end(), name) ==
            booleans_.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

void CliArgs::reject_positional() const {
  if (!positional_.empty()) {
    throw std::invalid_argument("unexpected argument " + positional_.front());
  }
}

bool CliArgs::wants_json() const {
  return get_string("format", "ascii") == "json";
}

TableStyle CliArgs::get_table_style() const {
  const std::string format = get_string("format", "ascii");
  if (format == "markdown" || format == "md") return TableStyle::kMarkdown;
  if (format == "csv") return TableStyle::kCsv;
  return TableStyle::kAscii;
}

std::vector<std::uint64_t> CliArgs::get_uint_list(
    const std::string& name, std::vector<std::uint64_t> fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::vector<std::uint64_t> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
  }
  return out;
}

}  // namespace rapsim::util
