// Deterministic VM executor: lower a Program to an executable
// dmm::Kernel (and from there, via replay::capture_run, to a versioned
// AccessTrace).
//
// The interpreter runs all threads in SPMD lockstep: control flow (loop,
// bz/bnz, halt) must be uniform across threads — counted loops are by
// construction, branches are checked at run time. Per-lane state
// divergence enters only through `lane`/`warp` reads and `mask`
// predication.
//
// It runs a warp at a time rather than a lane at a time: each register
// is block-uniform (one value), warp-uniform (one value per warp) or
// per-lane (one per thread), and each instruction is dispatched once and
// applied to the whole value vector at the finer of its operands'
// levels, so `li`, loop counters and the arithmetic on them cost one
// evaluation, not one per thread. Under a mask a per-lane result is
// computed in the active threads only, and a write that skips
// masked-off threads makes its register per-lane; loop counters are
// written in every thread and stay block-uniform. Errors fire exactly
// where a per-thread walk of the same program raises them (DESIGN.md
// §15, "How lowering runs"): a zero divisor is an error in any thread,
// masked or not; addresses and mask predicates are read only in active
// threads, so a device-valued operand there is no error when no thread
// is active; a branch predicate is read in every thread.
//
// Each memory or cmpx step emits exactly one SIMD instruction holding
// the active lanes' ops (masked lanes idle and are not stored); `bar`
// emits a block-wide barrier; ALU steps are free, matching the DMM's
// cost model where arithmetic never touches the MMU pipeline. The ops go
// straight into the kernel's sparse store, built once at the end.
//
// DATA vs ADDRESS separation (the ISA's soundness rule): `ld` binds the
// destination register to one of the DMM's 4 per-thread machine
// registers, and from then on the register is device-valued — the
// interpreter does not know its contents, and using it in address
// arithmetic, predicates, or control flow is a lowering error. Device
// values flow only through st (kStore), amo (kAtomicAdd), cmpx (kMinMax)
// and the accumulating loads ldadd (kLoadAdd) and ldmac (kLoadMulAdd,
// whose multiplier must be device-valued too), so every address in the
// emitted kernel is a pure function of (lane, warp, loop counters): the
// lowered kernel, its captured trace, and the extracted IR
// (vm/extract.hpp) all describe the same deterministic address stream.

#pragma once

#include <cstdint>
#include <string>

#include "dmm/kernel.hpp"
#include "vm/isa.hpp"

namespace rapsim::vm {

struct LoweredProgram {
  dmm::Kernel kernel;              // one instruction per memory/cmpx step
  std::uint32_t width = 0;
  std::uint64_t rows = 0;          // backing MatrixMap rows (memory/width)
  std::uint64_t steps = 0;         // interpreter steps executed
  std::uint64_t memory_instructions = 0;  // memory instructions emitted
  std::uint64_t barriers = 0;
  /// Values the li/mov/ALU steps computed: one for a block-uniform
  /// result, one per warp for a warp-uniform one, one per active thread
  /// for a per-lane one. Deterministic, so test_alloc_gate pins it.
  std::uint64_t alu_lane_evaluations = 0;
};

/// Interpret `program` and build its SIMD kernel. Throws
/// std::invalid_argument ("line N: ...") on dynamic errors: out-of-bounds
/// addresses, device-valued registers in address/ALU positions, more
/// than 4 simultaneously live loaded values, an ldmac multiplier that is
/// not loaded data, an accumulator whose first use would bind a machine
/// register an earlier instruction wrote (the DMM zeroes registers only
/// when a run begins), non-uniform branches, barriers under a mask,
/// division by zero, or runaway execution.
[[nodiscard]] LoweredProgram lower_program(const Program& program);

}  // namespace rapsim::vm
