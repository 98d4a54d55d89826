// Per-lane reference interpreter for the VM executor (tests only).
//
// lower_per_lane() runs a Program one thread at a time through a
// per-operand switch, the way vm::lower_program did before it ran an
// instruction over whole lane vectors: every ALU step is evaluated in
// every thread (masked or not), addresses and predicates only in the
// active ones, and a branch predicate in every thread. It is slow and
// simple on purpose. VmExec.WarpAtATimeLoweringMatchesPerLaneReference
// compares the two on random programs: same kernel, same counters, or
// the same error text.

#pragma once

#include "vm/exec.hpp"
#include "vm/isa.hpp"

namespace rapsim::vm::testing {

/// Lower `program` thread by thread. Returns the same kernel, labels,
/// steps, memory_instructions and barriers as vm::lower_program (its
/// alu_lane_evaluations stays 0), or throws the same
/// std::invalid_argument text.
[[nodiscard]] LoweredProgram lower_per_lane(const Program& program);

}  // namespace rapsim::vm::testing
