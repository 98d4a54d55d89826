#include "hier/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace rapsim::hier {

// --- RoundRobinScheduler ---------------------------------------------------

void RoundRobinScheduler::reset(std::uint32_t num_warps) {
  num_warps_ = num_warps;
  rr_ = 0;
}

std::uint32_t RoundRobinScheduler::pick(const SchedulerView& view) {
  // First candidate in cyclic order starting at rr_ — identical to the
  // historical Dmm scan `(rr + k) % num_warps` choosing the first warp
  // whose ready time has arrived.
  std::uint32_t best = view.candidates.front();
  std::uint32_t best_key = num_warps_;
  for (const std::uint32_t warp : view.candidates) {
    const std::uint32_t key = (warp + num_warps_ - rr_) % num_warps_;
    if (key < best_key) {
      best_key = key;
      best = warp;
    }
  }
  return best;
}

void RoundRobinScheduler::on_dispatch(std::uint32_t warp) {
  rr_ = (warp + 1) % num_warps_;
}

// --- GreedyThenOldestScheduler ---------------------------------------------

void GreedyThenOldestScheduler::reset(std::uint32_t num_warps) {
  (void)num_warps;
  has_last_ = false;
  last_ = 0;
}

std::uint32_t GreedyThenOldestScheduler::pick(const SchedulerView& view) {
  if (has_last_ &&
      std::find(view.candidates.begin(), view.candidates.end(), last_) !=
          view.candidates.end()) {
    return last_;  // greedy: stick with the running warp
  }
  // Oldest: the candidate ready the longest (smallest ready time); the
  // candidate list is ascending by warp id, so the first minimum wins
  // ties deterministically.
  std::uint32_t best = view.candidates.front();
  for (const std::uint32_t warp : view.candidates) {
    if (view.ready[warp] < view.ready[best]) best = warp;
  }
  return best;
}

void GreedyThenOldestScheduler::on_dispatch(std::uint32_t warp) {
  last_ = warp;
  has_last_ = true;
}

// --- DynamicResizeScheduler ------------------------------------------------

void DynamicResizeScheduler::reset(std::uint32_t num_warps) {
  num_warps_ = num_warps;
  max_group_ = 1;
  while (max_group_ * 2 <= num_warps) max_group_ *= 2;
  group_size_ = 1;
  last_ = 0;
  has_last_ = false;
  streak_ = 0;
  misses_ = 0;
}

std::uint32_t DynamicResizeScheduler::pick(const SchedulerView& view) {
  if (has_last_ && group_size_ > 1) {
    // Prefer the next member of the running macro-warp (cyclic within the
    // aligned group), emulating one resized large warp issuing
    // back-to-back.
    const std::uint32_t base = (last_ / group_size_) * group_size_;
    for (std::uint32_t k = 1; k <= group_size_; ++k) {
      const std::uint32_t warp = base + (last_ - base + k) % group_size_;
      if (warp >= num_warps_) continue;
      if (std::binary_search(view.candidates.begin(), view.candidates.end(),
                             warp)) {
        misses_ = 0;
        if (++streak_ >= kGrowStreak && group_size_ < max_group_) {
          group_size_ *= 2;
          streak_ = 0;
        }
        return warp;
      }
    }
    // Divergence: the macro-warp has no ready member while other warps
    // do — the resized warp lost lockstep; vote to split it.
    streak_ = 0;
    if (++misses_ >= kShrinkMisses && group_size_ > 1) {
      group_size_ /= 2;
      misses_ = 0;
    }
  } else if (has_last_) {
    // Group size 1: a completed solo pick still counts toward regrowth.
    if (++streak_ >= kGrowStreak && group_size_ < max_group_) {
      group_size_ *= 2;
      streak_ = 0;
    }
  }
  // Fallback: oldest-first, ties to the lowest id.
  std::uint32_t best = view.candidates.front();
  for (const std::uint32_t warp : view.candidates) {
    if (view.ready[warp] < view.ready[best]) best = warp;
  }
  return best;
}

void DynamicResizeScheduler::on_dispatch(std::uint32_t warp) {
  last_ = warp;
  has_last_ = true;
}

// --- factory ---------------------------------------------------------------

const std::vector<std::string>& scheduler_names() {
  static const std::vector<std::string> names = {"roundrobin", "gto", "dwr"};
  return names;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "roundrobin" || name == "rr") {
    return std::make_unique<RoundRobinScheduler>();
  }
  if (name == "gto") return std::make_unique<GreedyThenOldestScheduler>();
  if (name == "dwr") return std::make_unique<DynamicResizeScheduler>();
  std::string valid;
  for (const std::string& n : scheduler_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  throw std::invalid_argument("unknown scheduler: " + name + " (valid: " +
                              valid + ")");
}

}  // namespace rapsim::hier
