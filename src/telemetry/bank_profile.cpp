#include "telemetry/bank_profile.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace rapsim::telemetry {

BankProfile::BankProfile(std::uint32_t width) : width_(width) {
  if (width == 0) throw std::invalid_argument("BankProfile: width must be > 0");
}

void BankProfile::add_row(std::string label,
                          std::vector<std::uint64_t> bank_counts) {
  if (bank_counts.size() != width_) {
    throw std::invalid_argument(
        "BankProfile::add_row: counts must have one entry per bank");
  }
  rows_.push_back({std::move(label), std::move(bank_counts)});
}

std::string BankProfile::render_heatmap(std::size_t max_columns) const {
  static constexpr char kScale[] = " .:-=+*#%@";
  static constexpr std::size_t kLevels = sizeof(kScale) - 2;  // index of '@'
  if (max_columns == 0) max_columns = 1;
  const std::size_t columns = std::min<std::size_t>(width_, max_columns);
  const std::size_t fold = (width_ + columns - 1) / columns;

  std::size_t label_width = 4;
  for (const auto& r : rows_) label_width = std::max(label_width, r.label.size());

  std::ostringstream out;
  out << std::string(label_width, ' ') << "  bank 0";
  if (width_ > 1) {
    out << " .. " << width_ - 1;
    if (fold > 1) out << " (x" << fold << " per column)";
  }
  out << '\n';
  for (const auto& r : rows_) {
    std::vector<std::uint64_t> cells(columns, 0);
    for (std::size_t b = 0; b < width_; ++b) cells[b / fold] += r.counts[b];
    const std::uint64_t peak = *std::max_element(cells.begin(), cells.end());
    out << r.label << std::string(label_width - r.label.size(), ' ') << "  [";
    for (const std::uint64_t c : cells) {
      const std::size_t level =
          peak == 0 ? 0
                    : (c * kLevels + peak - 1) / peak;  // ceil; 0 only if c==0
      out << kScale[level];
    }
    const std::size_t hottest = static_cast<std::size_t>(
        std::max_element(r.counts.begin(), r.counts.end()) - r.counts.begin());
    out << "]  max " << (r.counts.empty() ? 0 : r.counts[hottest]) << " @ bank "
        << hottest << '\n';
  }
  return out.str();
}

std::string BankProfile::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.kv("width", static_cast<std::uint64_t>(width_));
  json.key("rows").begin_array();
  for (const auto& r : rows_) {
    json.begin_object();
    json.kv("label", std::string_view(r.label));
    json.key("bank_requests").begin_array();
    for (const std::uint64_t c : r.counts) json.value(c);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace rapsim::telemetry
