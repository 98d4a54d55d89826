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
