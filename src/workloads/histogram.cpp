#include "workloads/histogram.hpp"

#include <stdexcept>

#include "core/factory.hpp"
#include "util/rng.hpp"

namespace rapsim::workloads {

std::vector<std::uint32_t> make_input(const HistogramConfig& config,
                                      double skew, std::uint64_t seed) {
  util::Pcg32 rng(seed, /*stream=*/0x68697374ull);
  std::vector<std::uint32_t> input(
      static_cast<std::size_t>(config.width) * config.items_per_thread);
  constexpr std::uint32_t kHotValue = 0;
  for (auto& item : input) {
    const bool hot = util::uniform01(rng) < skew;
    item = hot ? kHotValue : rng.bounded(config.bins);
  }
  return input;
}

analyze::KernelDesc describe_histogram_kernel(const HistogramConfig& config) {
  if (config.bins == 0 || config.bins % config.width != 0) {
    throw std::invalid_argument(
        "describe_histogram_kernel: bins must be a multiple of width");
  }
  using analyze::AccessDir;
  using analyze::AccessSite;
  const std::int64_t bins = config.bins;

  analyze::KernelDesc kernel;
  kernel.name = "histogram";
  kernel.width = config.width;
  kernel.rows = config.bins + 1;  // w sub-histograms + the scratch row
  kernel.vars = {{"bin", config.bins}};

  // The broadcast load of the increment constant: one address, merged.
  AccessSite load_one;
  load_one.name = "load scratch(1)";
  load_one.dir = AccessDir::kLoad;
  load_one.flat = {static_cast<std::int64_t>(config.width) * bins, 0, {0}};

  // subhist[t][bin] = t*bins + bin for a warp-uniform bin value.
  AccessSite increment;
  increment.name = "atomic subhist[t][bin]";
  increment.dir = AccessDir::kAtomic;
  increment.flat = {0, bins, {1}};

  kernel.sites = {std::move(load_one), std::move(increment)};
  return kernel;
}

HistogramReport run_histogram(const HistogramConfig& config,
                              core::Scheme scheme,
                              std::span<const std::uint32_t> input,
                              std::uint64_t seed) {
  const std::uint32_t w = config.width;
  const std::uint32_t bins = config.bins;
  if (bins % w != 0) {
    throw std::invalid_argument(
        "run_histogram: bins must be a multiple of width (the layout-trap "
        "configuration this workload studies)");
  }
  if (input.size() != static_cast<std::size_t>(w) * config.items_per_thread) {
    throw std::invalid_argument("run_histogram: input size mismatch");
  }

  // Memory: w private sub-histograms of `bins` counters, then one scratch
  // word holding the constant 1 for the atomic increments.
  const std::uint64_t counters = static_cast<std::uint64_t>(w) * bins;
  const std::uint64_t scratch = counters;
  const std::uint64_t rows = (counters + w) / w;  // bins + 1 rows
  const auto map = core::make_matrix_map(scheme, w, rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{w, 1}, *map);
  machine.store(scratch, 1);

  dmm::Kernel kernel{w, {}, {}};
  {
    dmm::Row load_one(w);
    for (std::uint32_t t = 0; t < w; ++t) {
      load_one[t] = dmm::ThreadOp::load(scratch, 0);  // merged: 1 request
    }
    kernel.push(std::move(load_one));
  }
  for (std::uint32_t item = 0; item < config.items_per_thread; ++item) {
    dmm::Row increment(w);
    for (std::uint32_t t = 0; t < w; ++t) {
      const std::uint32_t value = input[item * w + t];
      increment[t] = dmm::ThreadOp::atomic_add(
          static_cast<std::uint64_t>(t) * bins + value, 0);
    }
    kernel.push(std::move(increment));
  }

  HistogramReport report;
  report.stats = machine.run(kernel);

  // Reduce the private sub-histograms host-side and verify.
  report.counts.assign(bins, 0);
  for (std::uint32_t t = 0; t < w; ++t) {
    for (std::uint32_t b = 0; b < bins; ++b) {
      report.counts[b] +=
          machine.load(static_cast<std::uint64_t>(t) * bins + b);
    }
  }
  std::vector<std::uint64_t> expected(bins, 0);
  for (const std::uint32_t value : input) ++expected[value];
  report.correct = report.counts == expected;
  return report;
}

}  // namespace rapsim::workloads
