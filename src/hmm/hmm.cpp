#include "hmm/hmm.hpp"

#include <stdexcept>

namespace rapsim::hmm {

Hmm::Hmm(HmmConfig config, const core::AddressMap& shared_map,
         std::uint64_t global_words)
    : config_(config),
      global_map_(core::Scheme::kRaw, config.width,
                  (global_words + config.width - 1) / config.width),
      global_(dmm::umm_config(config.width, config.global_latency),
              global_map_),
      shared_(dmm::dmm_config(config.width, config.shared_latency),
              shared_map) {
  if (shared_map.width() != config.width) {
    throw std::invalid_argument("Hmm: shared map width must match config");
  }
}

std::uint64_t Hmm::global_load(std::uint64_t addr) const {
  return global_.load(addr);
}

void Hmm::global_store(std::uint64_t addr, std::uint64_t value) {
  global_.store(addr, value);
}

std::uint64_t Hmm::shared_load(std::uint64_t addr) const {
  return shared_.load(addr);
}

void Hmm::shared_store(std::uint64_t addr, std::uint64_t value) {
  shared_.store(addr, value);
}

void Hmm::charge_global(const dmm::RunStats& run) {
  stats_.global_time += run.time;
  stats_.global_slots += run.total_stages;
}

void Hmm::charge_shared(const dmm::RunStats& run) {
  stats_.shared_time += run.time;
  stats_.shared_slots += run.total_stages;
}

void Hmm::copy_in(const CopyPhase& phase, std::uint32_t num_threads) {
  if (phase.size() != num_threads) {
    throw std::invalid_argument("Hmm::copy_in: one op per thread required");
  }
  // Timing: the global machine executes the loads, the shared machine the
  // stores. Data: moved host-side between the two memories.
  dmm::Kernel global_kernel{num_threads, {}, {}};
  dmm::Kernel shared_kernel{num_threads, {}, {}};
  dmm::Row loads(num_threads), stores(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    if (!phase[t]) continue;
    loads[t] = dmm::ThreadOp::load(phase[t]->global);
    stores[t] = dmm::ThreadOp::store_imm(phase[t]->shared,
                                         global_.load(phase[t]->global));
  }
  global_kernel.push(std::move(loads));
  shared_kernel.push(std::move(stores));
  charge_global(global_.run(global_kernel));
  charge_shared(shared_.run(shared_kernel));
}

void Hmm::copy_out(const CopyPhase& phase, std::uint32_t num_threads) {
  if (phase.size() != num_threads) {
    throw std::invalid_argument("Hmm::copy_out: one op per thread required");
  }
  dmm::Kernel shared_kernel{num_threads, {}, {}};
  dmm::Kernel global_kernel{num_threads, {}, {}};
  dmm::Row loads(num_threads), stores(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    if (!phase[t]) continue;
    loads[t] = dmm::ThreadOp::load(phase[t]->shared);
    stores[t] = dmm::ThreadOp::store_imm(phase[t]->global,
                                         shared_.load(phase[t]->shared));
  }
  shared_kernel.push(std::move(loads));
  global_kernel.push(std::move(stores));
  charge_shared(shared_.run(shared_kernel));
  charge_global(global_.run(global_kernel));
}

void Hmm::copy_global(const CopyPhase& phase, std::uint32_t num_threads) {
  if (phase.size() != num_threads) {
    throw std::invalid_argument(
        "Hmm::copy_global: one op per thread required");
  }
  dmm::Kernel kernel{num_threads, {}, {}};
  dmm::Row loads(num_threads), stores(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    if (!phase[t]) continue;
    loads[t] = dmm::ThreadOp::load(phase[t]->global);
    stores[t] = dmm::ThreadOp::store(phase[t]->shared);
  }
  kernel.push(std::move(loads));
  kernel.push(std::move(stores));
  charge_global(global_.run(kernel));
}

void Hmm::run_shared(const dmm::Kernel& kernel) {
  charge_shared(shared_.run(kernel));
}

void HmmStats::flush_into(telemetry::MetricsRegistry& registry,
                          const telemetry::Labels& labels) const {
  registry.counter("hmm.global_time_units", labels).set(global_time);
  registry.counter("hmm.shared_time_units", labels).set(shared_time);
  registry.counter("hmm.global_slots", labels).set(global_slots);
  registry.counter("hmm.shared_slots", labels).set(shared_slots);
}

}  // namespace rapsim::hmm
