#include "hier/event.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rapsim::hier {

EventCore::EventCore(std::uint32_t num_warps, std::uint32_t latency)
    : num_warps_(num_warps),
      latency_(latency),
      ready_(num_warps, 0),
      state_(num_warps) {
  if (latency == 0) {
    throw std::invalid_argument("EventCore: pipeline latency must be > 0");
  }
  candidates_.reserve(num_warps);
}

void EventCore::refresh(const WarpSource& source, std::uint32_t warp) {
  WarpState& state = state_[warp];
  state.done = source.done(warp);
  state.parked = !state.done && source.at_barrier(warp);
  state.pc = state.done ? 0 : source.pc(warp);
}

void EventCore::advance(WarpSource& source, std::uint32_t warp) {
  source.advance(warp);
  refresh(source, warp);
}

bool EventCore::step(WarpSource& source, Scheduler& scheduler,
                     CoreHooks* hooks) {
  if (!mirrored_) {
    for (std::uint32_t warp = 0; warp < num_warps_; ++warp) {
      refresh(source, warp);
    }
    mirrored_ = true;
  }
  // One scan establishes everything the decision needs: whether any warp
  // is still pending, whether any pending warp is NOT parked at a
  // barrier, the earliest readiness among those, and the candidate set
  // (ready now, not at a barrier).
  bool any_pending = false;
  bool any_non_barrier = false;
  std::uint64_t min_ready = std::numeric_limits<std::uint64_t>::max();
  candidates_.clear();
  for (std::uint32_t warp = 0; warp < num_warps_; ++warp) {
    const WarpState& state = state_[warp];
    if (state.done) continue;
    any_pending = true;
    if (state.parked) continue;
    any_non_barrier = true;
    min_ready = std::min(min_ready, ready_[warp]);
    if (ready_[warp] <= pipeline_next_) candidates_.push_back(warp);
  }
  if (!any_pending) return false;

  if (candidates_.empty()) {
    if (any_non_barrier) {
      // All runnable warps are still waiting on outstanding requests; the
      // pipeline idles until the first becomes ready.
      if (hooks) hooks->on_idle(min_ready - pipeline_next_);
      pipeline_next_ = min_ready;
      return true;
    }
    // Every pending warp is parked at a barrier: release the earliest
    // barrier group once all outstanding requests have drained. Exactly
    // one release group fires per barrier instruction (no warp can pass
    // a barrier other warps still approach).
    std::size_t barrier_pc = std::numeric_limits<std::size_t>::max();
    for (std::uint32_t warp = 0; warp < num_warps_; ++warp) {
      if (!state_[warp].done) {
        barrier_pc = std::min(barrier_pc, state_[warp].pc);
      }
    }
    std::uint64_t release = 0;
    for (std::uint32_t warp = 0; warp < num_warps_; ++warp) {
      release = std::max(release, ready_[warp]);
    }
    if (hooks) hooks->on_barrier_release(barrier_pc);
    for (std::uint32_t warp = 0; warp < num_warps_; ++warp) {
      if (!state_[warp].done && state_[warp].pc == barrier_pc) {
        ready_[warp] = release;
        advance(source, warp);
      }
    }
    return true;
  }

  const std::uint32_t chosen =
      scheduler.pick({candidates_, ready_, pipeline_next_});
  if (std::find(candidates_.begin(), candidates_.end(), chosen) ==
      candidates_.end()) {
    throw std::logic_error(
        "EventCore: scheduler picked a warp outside the candidate set");
  }

  const std::size_t pc = state_[chosen].pc;
  const IssueResult access = source.issue(chosen);

  if (access.stages == 0) {
    // Register-only instruction: executed by the source, no pipeline
    // traffic and no completion to wait for.
    advance(source, chosen);
    scheduler.on_dispatch(chosen);
    return true;
  }

  const std::uint64_t start = pipeline_next_;
  const std::uint64_t completion =
      start + access.stages + latency_ - 1 + access.extra_latency;
  totals_.add(access.stages, completion);

  if (hooks) {
    hooks->on_dispatch({chosen, pc, start, access.stages, completion,
                        access.active_threads, access.unique_requests,
                        start - ready_[chosen]});
  }

  pipeline_next_ = start + access.stages;
  ready_[chosen] = completion + 1;
  advance(source, chosen);
  scheduler.on_dispatch(chosen);
  return true;
}

const DispatchTotals& EventCore::run(WarpSource& source, Scheduler& scheduler,
                                     CoreHooks* hooks) {
  while (step(source, scheduler, hooks)) {
  }
  return totals_;
}

}  // namespace rapsim::hier
