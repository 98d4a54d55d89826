// Request-scoped span tracing: begin/end intervals with parent IDs, so
// one daemon request (or one campaign cell) renders as a nested flame
// of its actual phases instead of a single latency number.
//
// Design constraints, in order:
//
//   * zero-cost when disabled — begin() is one relaxed atomic load and
//     returns kNoSpan; end(kNoSpan) returns immediately. A Service or
//     replay path can thread a tracer unconditionally and pay nothing
//     until an operator passes --trace-out;
//   * thread-safe — spans begin on one thread (a connection pump) and
//     end on another (a pool worker); a mutex guards the span tables,
//     which is fine because an enabled tracer records a handful of
//     spans per REQUEST, not per memory access;
//   * timestamps come from util::now() (the repository's single
//     steady clock, header-only so no link cycle), relative to the
//     tracer's construction epoch.
//
// Export: chrome_trace.hpp renders snapshot() as a Trace Event Format
// document — every span an "X" event carrying its id/parent in args,
// re-homed onto its root span's track so one request is one nested
// flame in ui.perfetto.dev.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace rapsim::telemetry {

inline constexpr std::uint64_t kNoSpan = 0;

struct SpanRecord {
  std::uint64_t id = kNoSpan;
  std::uint64_t parent = kNoSpan;  // kNoSpan = a root span
  std::string name;
  std::uint32_t thread = 0;        // dense per-tracer thread index
  std::uint64_t start_ns = 0;      // from the tracer's epoch
  std::uint64_t end_ns = 0;
};

class SpanTracer {
 public:
  SpanTracer();

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Open a span. Returns kNoSpan (and records nothing) when disabled.
  [[nodiscard]] std::uint64_t begin(std::string_view name,
                                    std::uint64_t parent = kNoSpan);
  /// Close a span; id = kNoSpan or an unknown/already-closed id is a
  /// no-op (a tracer disabled mid-request must not trip callers).
  void end(std::uint64_t id);

  /// Completed spans, in completion order.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::size_t completed_count() const;
  /// Drop all recorded spans (open spans survive and complete normally).
  void clear();

 private:
  std::uint32_t thread_index_locked();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  // steady-clock epoch in ns, captured at construction (stored as the
  // raw count so the header needs no <chrono> for callers).
  std::uint64_t epoch_ns_ = 0;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, SpanRecord> open_;
  std::vector<SpanRecord> completed_;
  std::unordered_map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span: begins on construction, ends on destruction. Safe on a
/// null tracer (records nothing).
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, std::string_view name,
             std::uint64_t parent = kNoSpan)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent) : kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanTracer* tracer_;
  std::uint64_t id_;
};

}  // namespace rapsim::telemetry
