// Umbrella header: the whole rapsim public API in one include.
//
//   #include "rapsim.hpp"            // with -I<repo>/src
//
// Downstream users who want finer-grained includes can pull individual
// module headers (core/mapping.hpp, dmm/machine.hpp, ...) — this header
// exists for quick starts and examples. Each header belongs to the
// library of its directory; tools/check_layering.cmake keeps every
// library's includes inside its link closure.

#pragma once

#include "access/adversary.hpp"
#include "access/montecarlo.hpp"
#include "access/pattern2d.hpp"
#include "access/pattern4d.hpp"
#include "analyze/advisor.hpp"
#include "analyze/affine.hpp"
#include "analyze/certificate.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/mapping.hpp"
#include "core/permutation.hpp"
#include "core/theory.hpp"
#include "dmm/capture.hpp"
#include "dmm/config.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"
#include "dmm/sanitizer.hpp"
#include "dmm/trace.hpp"
#include "dmm/umm.hpp"
#include "gpu/grid.hpp"
#include "gpu/register_pack.hpp"
#include "gpu/sm_model.hpp"
#include "hier/event.hpp"
#include "hier/hier.hpp"
#include "hier/memory.hpp"
#include "hier/scheduler.hpp"
#include "hmm/hmm.hpp"
#include "hmm/tiled_transpose.hpp"
#include "permute/offline.hpp"
#include "replay/campaign.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/isa.hpp"
#include "vm/suite.hpp"
#include "workloads/catalog.hpp"
#include "workloads/histogram.hpp"
#include "workloads/run.hpp"
