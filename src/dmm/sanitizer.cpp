#include "dmm/sanitizer.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace rapsim::dmm {

const char* finding_kind_name(FindingKind kind) noexcept {
  switch (kind) {
    case FindingKind::kOutOfBounds: return "out-of-bounds";
    case FindingKind::kUninitializedRead: return "uninitialized-read";
    case FindingKind::kWriteConflict: return "write-conflict";
    case FindingKind::kRawRace: return "raw-race";
    case FindingKind::kWawRace: return "waw-race";
    case FindingKind::kWarRace: return "war-race";
  }
  return "?";
}

bool is_race_kind(FindingKind kind) noexcept {
  return kind == FindingKind::kRawRace || kind == FindingKind::kWawRace ||
         kind == FindingKind::kWarRace;
}

namespace {

void append_site(std::ostringstream& out, const std::string& site) {
  if (!site.empty()) out << " '" << site << "'";
}

}  // namespace

std::string Finding::to_string() const {
  std::ostringstream out;
  out << finding_kind_name(kind) << ": warp " << warp << " lane " << thread
      << " instruction " << instruction;
  append_site(out, site);
  out << " logical " << logical;
  switch (kind) {
    case FindingKind::kOutOfBounds:
      out << " -> physical " << physical << " (beyond memory)";
      break;
    case FindingKind::kUninitializedRead:
      out << " -> physical " << physical << " (never written)";
      break;
    case FindingKind::kWriteConflict:
      out << " -> physical " << physical << " (lane " << other_thread
          << " won the CRCW race with a different value)";
      break;
    case FindingKind::kRawRace:
    case FindingKind::kWawRace:
    case FindingKind::kWarRace:
      out << " -> physical " << physical << " (races warp " << other_warp
          << " lane " << other_thread << " instruction " << other_instruction;
      append_site(out, other_site);
      out << " in the same barrier interval)";
      break;
  }
  return out.str();
}

void ShmemSanitizer::attach(std::uint32_t width, std::uint64_t size) {
  width_ = width;
  size_ = size;
  written_.assign(size, false);
  shadow_.assign(size, CellShadow{});
  epoch_ = 1;
  labels_.clear();
  findings_.clear();
  counts_.fill(0);
}

void ShmemSanitizer::begin_run(
    std::span<const std::string> instruction_labels) {
  ++epoch_;
  labels_.assign(instruction_labels.begin(), instruction_labels.end());
}

void ShmemSanitizer::note_barrier() noexcept { ++epoch_; }

void ShmemSanitizer::note_host_write(std::uint64_t physical) noexcept {
  if (physical < written_.size()) written_[physical] = true;
}

void ShmemSanitizer::note_host_fill() noexcept {
  std::fill(written_.begin(), written_.end(), true);
}

const std::string* ShmemSanitizer::label_of(std::uint32_t instruction) const {
  if (instruction < labels_.size() && !labels_[instruction].empty()) {
    return &labels_[instruction];
  }
  return nullptr;
}

void ShmemSanitizer::record_out_of_bounds(std::uint32_t warp,
                                          std::uint32_t thread,
                                          std::uint32_t instruction,
                                          std::uint64_t logical,
                                          std::uint64_t physical) {
  Finding f{FindingKind::kOutOfBounds, warp, thread, thread, instruction,
            logical, physical, 0, 0, {}, {}};
  record(std::move(f));
}

void ShmemSanitizer::check_read(std::uint32_t warp, std::uint32_t thread,
                                std::uint32_t instruction,
                                std::uint64_t logical, std::uint64_t physical,
                                bool atomic) {
  if (physical >= written_.size()) return;
  if (!written_[physical]) {
    Finding f{FindingKind::kUninitializedRead, warp, thread, thread,
              instruction, logical, physical, 0, 0, {}, {}};
    record(std::move(f));
  }
  CellShadow& cell = shadow_[physical];
  const ShadowAccess& w = cell.writer;
  if (w.epoch == epoch_ && w.warp != warp && !(w.atomic && atomic)) {
    Finding f{FindingKind::kRawRace, warp,       thread, w.lane,
              instruction,           logical,    physical,
              w.warp,                w.instruction, {}, {}};
    record(std::move(f));
  }
  // Record the reader: one slot per distinct warp (two suffice for
  // completeness of the WAR check).
  const ShadowAccess reader{epoch_, warp, thread, instruction, atomic};
  for (std::size_t k = 0; k < cell.readers.size(); ++k) {
    ShadowAccess& r = cell.readers[k];
    if (r.epoch != epoch_ || r.warp == warp) {
      r = reader;
      break;
    }
  }
}

void ShmemSanitizer::note_write(std::uint32_t warp, std::uint32_t thread,
                                std::uint32_t instruction,
                                std::uint64_t logical, std::uint64_t physical,
                                bool atomic) {
  if (physical >= written_.size()) return;
  written_[physical] = true;
  CellShadow& cell = shadow_[physical];
  const ShadowAccess& w = cell.writer;
  if (w.epoch == epoch_ && w.warp != warp && !(w.atomic && atomic)) {
    Finding f{FindingKind::kWawRace, warp,       thread, w.lane,
              instruction,           logical,    physical,
              w.warp,                w.instruction, {}, {}};
    record(std::move(f));
  }
  for (const ShadowAccess& r : cell.readers) {
    if (r.epoch == epoch_ && r.warp != warp && !(r.atomic && atomic)) {
      Finding f{FindingKind::kWarRace, warp,       thread, r.lane,
                instruction,           logical,    physical,
                r.warp,                r.instruction, {}, {}};
      record(std::move(f));
    }
  }
  cell.writer = ShadowAccess{epoch_, warp, thread, instruction, atomic};
}

void ShmemSanitizer::check_write_conflict(
    std::uint32_t warp, std::uint32_t winner, std::uint32_t thread,
    std::uint32_t instruction, std::uint64_t logical, std::uint64_t physical,
    std::uint64_t winner_value, std::uint64_t value) {
  if (winner_value == value) return;  // benign broadcast of one value
  Finding f{FindingKind::kWriteConflict, warp, thread, winner, instruction,
            logical, physical, 0, 0, {}, {}};
  record(std::move(f));
}

void ShmemSanitizer::record(Finding finding) {
  ++counts_[static_cast<std::size_t>(finding.kind)];
  if (findings_.size() < max_findings) {
    if (const std::string* s = label_of(finding.instruction)) {
      finding.site = *s;
    }
    if (is_race_kind(finding.kind)) {
      if (const std::string* s = label_of(finding.other_instruction)) {
        finding.other_site = *s;
      }
    }
    findings_.push_back(std::move(finding));
  }
}

std::uint64_t ShmemSanitizer::total() const noexcept {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

std::uint64_t ShmemSanitizer::race_total() const noexcept {
  return count(FindingKind::kRawRace) + count(FindingKind::kWawRace) +
         count(FindingKind::kWarRace);
}

void ShmemSanitizer::clear_findings() noexcept {
  findings_.clear();
  counts_.fill(0);
}

std::string ShmemSanitizer::report() const {
  std::ostringstream out;
  out << "shared-memory sanitizer: " << total() << " finding(s)";
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] == 0) continue;
    out << ", " << counts_[k] << " "
        << finding_kind_name(static_cast<FindingKind>(k));
  }
  out << "\n";
  for (const Finding& finding : findings_) {
    out << "  " << finding.to_string() << "\n";
  }
  if (total() > findings_.size()) {
    out << "  ... " << total() - findings_.size()
        << " more (raise max_findings to keep them)\n";
  }
  return out.str();
}

void ShmemSanitizer::flush_into(telemetry::MetricsRegistry& registry,
                                const telemetry::Labels& labels) const {
  registry.counter("sanitizer.out_of_bounds", labels)
      .inc(count(FindingKind::kOutOfBounds));
  registry.counter("sanitizer.uninitialized_read", labels)
      .inc(count(FindingKind::kUninitializedRead));
  registry.counter("sanitizer.write_conflict", labels)
      .inc(count(FindingKind::kWriteConflict));
  registry.counter("sanitizer.raw_race", labels)
      .inc(count(FindingKind::kRawRace));
  registry.counter("sanitizer.waw_race", labels)
      .inc(count(FindingKind::kWawRace));
  registry.counter("sanitizer.war_race", labels)
      .inc(count(FindingKind::kWarRace));
  registry.counter("sanitizer.races", labels).inc(race_total());
  registry.counter("sanitizer.findings", labels).inc(total());
  for (const Finding& finding : findings_) {
    if (!is_race_kind(finding.kind) || finding.site.empty()) continue;
    telemetry::Labels site_labels = labels;
    site_labels["site"] = finding.site;
    site_labels["kind"] = finding_kind_name(finding.kind);
    registry.counter("sanitizer.race_site", site_labels).inc(1);
  }
}

}  // namespace rapsim::dmm
