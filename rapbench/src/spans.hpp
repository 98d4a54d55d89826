// In-memory span tracing for the benchmark's traced run.
//
// The benchmark opens a span around each call it makes into a layer's
// public functions (make_matrix_map, parse_trace, EventCore::run, ...).
// A span records its name, its parent, its start and end on the steady
// clock, and the heap allocations the calling thread made inside it.
// Spans are folded into per-name totals when their root span closes,
// so memory stays bounded however long the run; the first kKeptSpans
// are also kept verbatim and written out at the end as a chrome trace.
//
// telemetry::SpanTracer is not reused here: it takes a mutex and a hash
// map entry per span, which is sized for a handful of spans per request
// and would dominate spans of a few hundred nanoseconds.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rapbench {

/// Heap allocations made by the calling thread so far. Defined by
/// alloc_count.cpp, which replaces the global operator new; only the
/// benchmark's executables link it.
[[nodiscard]] std::uint64_t allocations() noexcept;

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint32_t name = 0;            // Tracer name id
  std::uint32_t parent = kNoParent;  // index of the enclosing span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t allocs = 0;          // allocations between begin and end
};

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover (overlapping children count once, and a
/// child reaching outside its parent is clipped to it). `spans[i].parent`
/// indexes into `spans`.
[[nodiscard]] std::vector<std::uint64_t> self_times(std::span<const Span> spans);

/// Totals over every closed span of one name.
struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t allocs = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; begin() returns kNoParent.
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Name id for `name`, stable for the tracer's lifetime.
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  /// Open a span under the innermost open one; returns its handle.
  [[nodiscard]] std::uint32_t begin(std::uint32_t name);
  /// Close the span `handle` (the innermost open one).
  void end(std::uint32_t handle);

  /// Totals of the spans named `name` (zero when none closed).
  [[nodiscard]] LayerTotals totals(std::string_view name) const;
  /// Every name in first-use order.
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// The kept spans as a Trace Event Format document.
  [[nodiscard]] std::string chrome_trace() const;

 private:
  static constexpr std::size_t kKeptSpans = 1u << 16;

  void fold();  // batch_ -> totals_ (and kept_), once no span is open

  bool enabled_;
  std::uint64_t epoch_ns_;
  std::uint64_t own_allocs_ = 0;  // allocations made by begin() itself
  std::vector<std::string> names_;
  std::vector<LayerTotals> totals_;  // by name id
  std::vector<Span> batch_;          // spans of the open root
  std::vector<std::uint32_t> open_;  // stack of batch_ indices
  std::vector<Span> kept_;
};

/// RAII span; does nothing on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer), handle_(tracer.enabled() ? tracer.begin(name)
                                                  : kNoParent) {}
  ~Scope() {
    if (handle_ != kNoParent) tracer_.end(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

}  // namespace rapbench
