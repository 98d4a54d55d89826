#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "telemetry/chrome_trace.hpp"

namespace rapbench {

namespace {

std::uint64_t clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<std::uint64_t> self_times(std::span<const Span> spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }

  // Children sorted by (parent, start); each parent's covered length is
  // the union of its children's intervals clipped to its own.
  std::vector<std::size_t> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == kNoParent) continue;
    if (spans[i].parent >= spans.size()) {
      throw std::invalid_argument("self_times: parent index out of range");
    }
    children.push_back(i);
  }
  std::sort(children.begin(), children.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start_ns < spans[b].start_ns;
  });

  std::size_t k = 0;
  while (k < children.size()) {
    const std::uint32_t parent = spans[children[k]].parent;
    const std::uint64_t lo = spans[parent].start_ns;
    const std::uint64_t hi = spans[parent].end_ns;
    std::uint64_t covered = 0;
    std::uint64_t reach = lo;  // end of the union so far
    for (; k < children.size() && spans[children[k]].parent == parent; ++k) {
      const std::uint64_t start = std::max(spans[children[k]].start_ns, reach);
      const std::uint64_t end = std::min(spans[children[k]].end_ns, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[parent] -= std::min(covered, self[parent]);
  }
  return self;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(clock_ns()) {}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(std::uint32_t name) {
  // The tracer's own allocations (its buffers growing) are subtracted,
  // so an enclosing span counts only the traced code's allocations.
  const std::uint64_t before = allocations();
  const auto handle = static_cast<std::uint32_t>(batch_.size());
  Span& span = batch_.emplace_back();
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  open_.push_back(handle);
  own_allocs_ += allocations() - before;
  span.allocs = allocations() - own_allocs_;
  span.start_ns = clock_ns() - epoch_ns_;
  return handle;
}

void Tracer::end(std::uint32_t handle) {
  const std::uint64_t end_ns = clock_ns() - epoch_ns_;
  const std::uint64_t allocs = allocations() - own_allocs_;
  if (open_.empty() || open_.back() != handle) {
    throw std::logic_error("Tracer::end: spans must close innermost first");
  }
  Span& span = batch_[handle];
  span.end_ns = end_ns;
  span.allocs = allocs - span.allocs;
  open_.pop_back();
  if (open_.empty()) fold();
}

void Tracer::fold() {
  const std::vector<std::uint64_t> self = self_times(batch_);
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    LayerTotals& t = totals_[batch_[i].name];
    ++t.count;
    t.total_ns += batch_[i].end_ns - batch_[i].start_ns;
    t.self_ns += self[i];
    t.allocs += batch_[i].allocs;
  }
  if (kept_.size() + batch_.size() <= kKeptSpans) {
    const auto offset = static_cast<std::uint32_t>(kept_.size());
    for (Span span : batch_) {
      if (span.parent != kNoParent) span.parent += offset;
      kept_.push_back(span);
    }
  }
  batch_.clear();
}

LayerTotals Tracer::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

std::string Tracer::chrome_trace() const {
  std::vector<rapsim::telemetry::SpanRecord> records;
  records.reserve(kept_.size());
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    rapsim::telemetry::SpanRecord record;
    record.id = i + 1;
    record.parent = kept_[i].parent == kNoParent ? rapsim::telemetry::kNoSpan
                                                 : kept_[i].parent + 1;
    record.name = names_[kept_[i].name];
    record.start_ns = kept_[i].start_ns;
    record.end_ns = kept_[i].end_ns;
    records.push_back(std::move(record));
  }
  return rapsim::telemetry::spans_to_chrome_trace(records, "rapbench");
}

}  // namespace rapbench
