// Pluggable warp schedulers for the event core.
//
// Three policies, all deterministic and starvation-free (a dispatched
// warp leaves the candidate set for at least `latency` slots, so any
// other ready warp is picked no later than the moment it becomes the
// only candidate — tests/hier_test.cpp pins the fairness property):
//
//   * RoundRobinScheduler ("roundrobin") — the historical Dmm policy:
//     first ready warp in cyclic order after the last dispatch. The
//     1-SM zero-latency-path differential pin runs on this one.
//   * GreedyThenOldestScheduler ("gto") — greedy-then-oldest: keep
//     issuing the last-dispatched warp while it stays ready (maximizes
//     intra-warp locality / row-buffer reuse), otherwise fall back to
//     the warp that has been ready longest (oldest-first latency
//     tolerance), ties to the lowest id.
//   * DynamicResizeScheduler ("dwr") — a dynamic-warp-resizing policy in
//     the spirit of Lashgar et al. ("Dynamic Warp Resizing in
//     High-Performance SIMT"): warps are grouped into aligned macro-warps
//     of 2^k members that the policy tries to issue back-to-back (one
//     large warp amortizing a single fetch). Sustained full sweeps grow
//     the macro-warp; repeated divergence (the preferred group has no
//     ready member while others do) shrinks it. At group size 1 the
//     policy degenerates to oldest-first.
//
// make_scheduler() maps the CLI spelling to an instance; scheduler_names
// lists the valid spellings for error messages and sweeps.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hier/event.hpp"

namespace rapsim::hier {

class RoundRobinScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "roundrobin";
  }
  void reset(std::uint32_t num_warps) override;
  [[nodiscard]] std::uint32_t pick(const SchedulerView& view) override;
  void on_dispatch(std::uint32_t warp) override;

 private:
  std::uint32_t num_warps_ = 0;
  std::uint32_t rr_ = 0;  // scan starts here
};

class GreedyThenOldestScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "gto"; }
  void reset(std::uint32_t num_warps) override;
  [[nodiscard]] std::uint32_t pick(const SchedulerView& view) override;
  void on_dispatch(std::uint32_t warp) override;

 private:
  std::uint32_t last_ = 0;
  bool has_last_ = false;
};

class DynamicResizeScheduler final : public Scheduler {
 public:
  /// Grow after kGrowStreak consecutive same-group picks, shrink after
  /// kShrinkMisses consecutive divergences.
  static constexpr std::uint32_t kGrowStreak = 4;
  static constexpr std::uint32_t kShrinkMisses = 2;

  [[nodiscard]] const char* name() const noexcept override { return "dwr"; }
  void reset(std::uint32_t num_warps) override;
  [[nodiscard]] std::uint32_t pick(const SchedulerView& view) override;
  void on_dispatch(std::uint32_t warp) override;

  /// Current macro-warp size (power of two) — exposed for tests.
  [[nodiscard]] std::uint32_t group_size() const noexcept {
    return group_size_;
  }

 private:
  std::uint32_t num_warps_ = 0;
  std::uint32_t max_group_ = 1;  // largest power of two <= num_warps
  std::uint32_t group_size_ = 1;
  std::uint32_t last_ = 0;
  bool has_last_ = false;
  std::uint32_t streak_ = 0;  // consecutive same-group picks
  std::uint32_t misses_ = 0;  // consecutive divergences
};

/// All valid --scheduler spellings, in presentation order.
[[nodiscard]] const std::vector<std::string>& scheduler_names();

/// Instantiate a scheduler by name ("roundrobin"/"rr", "gto", "dwr").
/// Throws std::invalid_argument listing the valid names.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name);

}  // namespace rapsim::hier
