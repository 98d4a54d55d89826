// The one run harness: any lowered program, any scheme, checked against
// its catalog reference (workloads/catalog.hpp).
//
// run_program stores the reference's fill, runs the program on the DMM,
// reads every memory word back and applies the reference's check. It
// takes an already-lowered program, so a caller that sweeps schemes,
// seeds or latencies lowers once. Callers that attach telemetry, want
// the dispatch trace (per-phase congestion comes from
// telemetry::phase_stats) or inspect memory afterwards build the Dmm
// themselves and use the second overload.

#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "dmm/machine.hpp"
#include "dmm/trace.hpp"
#include "vm/exec.hpp"
#include "workloads/catalog.hpp"

namespace rapsim::workloads {

struct RunReport {
  bool correct = false;  // the reference's check accepted the final memory
  dmm::RunStats stats;
};

/// Run `program` on a DMM of latency `latency` over a
/// core::make_matrix_map(scheme, program.width, program.rows, seed) map;
/// `seed` also draws the reference's input.
[[nodiscard]] RunReport run_program(const vm::LoweredProgram& program,
                                    const Reference& reference,
                                    core::Scheme scheme,
                                    std::uint32_t latency, std::uint64_t seed);

/// Same, on a caller's machine (its map must span program.rows x
/// program.width words). A non-null `trace` receives the dispatch
/// records; the machine keeps the final memory.
[[nodiscard]] RunReport run_program(const vm::LoweredProgram& program,
                                    const Reference& reference,
                                    dmm::Dmm& machine, std::uint64_t seed,
                                    dmm::Trace* trace = nullptr);

}  // namespace rapsim::workloads
