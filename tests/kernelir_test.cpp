// Unit tests for the loop-nest kernel IR (analyze/kernelir.hpp) and the
// whole-kernel symbolic passes (analyze/passes.hpp): expression
// evaluation, validation, the text format, the residue-lattice closure,
// interval out-of-bounds detection, and degenerate site shapes. The
// IR-vs-simulator sweep lives in differential_kernel_test.cpp.

#include "analyze/kernelir.hpp"
#include "analyze/passes.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace rapsim::analyze {
namespace {

using core::Scheme;

/// w=8 CRSW transpose: read A row-wise, write B column-wise.
KernelDesc crsw_kernel() {
  KernelDesc kernel;
  kernel.name = "crsw";
  kernel.width = 8;
  kernel.rows = 16;
  kernel.vars = {{"u", 8}};
  AccessSite read;
  read.name = "read";
  read.dir = AccessDir::kLoad;
  read.flat = {0, 1, {8}};
  AccessSite write;
  write.name = "write";
  write.dir = AccessDir::kStore;
  write.flat = {64, 8, {1}};
  kernel.sites = {read, write};
  return kernel;
}

TEST(KernelIr, AffineExprEvalAndDescribe) {
  const std::vector<LoopVar> vars = {{"u", 4}, {"k", 4}};
  const AffineExpr expr{5, 2, {3, 0}};
  const std::vector<std::uint64_t> binding = {7, 9};
  EXPECT_EQ(expr.eval(2, binding), 5 + 2 * 2 + 3 * 7);
  EXPECT_EQ(expr.coeff(1), 0);
  EXPECT_EQ(expr.coeff(99), 0);  // missing trailing coeffs are zero
  EXPECT_EQ(expr.describe(vars), "5 + 2*lane + 3*u");
}

TEST(KernelIr, MaterializeFlatAndRowCol) {
  const KernelDesc kernel = crsw_kernel();
  const std::vector<std::uint64_t> binding = {3};
  const auto read = materialize_site(kernel, kernel.sites[0], binding);
  ASSERT_EQ(read.size(), 8u);
  EXPECT_EQ(read[0], 24);  // A[3][0]
  EXPECT_EQ(read[7], 31);

  // DRDW-style write: row = (u + lane) mod 8, shifted into the B half.
  AccessSite diag;
  diag.form = IndexForm::kRowCol;
  diag.row = {0, 1, {1}};
  diag.row_mod = 8;
  diag.row_base = 8;
  diag.col = {0, 1, {0}};
  const auto trace = materialize_site(kernel, diag, binding);
  EXPECT_EQ(trace[0], (8 + 3) * 8 + 0);
  EXPECT_EQ(trace[6], (8 + (3 + 6) % 8) * 8 + 6);  // row wrapped
}

/// The per-lane definition materialize_site must agree with: every lane
/// evaluates the whole affine expression.
std::vector<std::int64_t> reference_trace(const KernelDesc& kernel,
                                          const AccessSite& site,
                                          const std::vector<std::uint64_t>& b) {
  const std::uint32_t n = site.lanes == 0 ? kernel.width : site.lanes;
  const auto w = static_cast<std::int64_t>(kernel.width);
  std::vector<std::int64_t> trace;
  std::vector<std::uint64_t> opaque(n);
  if (site.form == IndexForm::kOpaque) site.opaque(b, opaque);
  for (std::uint32_t t = 0; t < n; ++t) {
    if (site.form == IndexForm::kFlat) {
      trace.push_back(site.flat.eval(t, b));
    } else if (site.form == IndexForm::kRowCol) {
      std::int64_t row = site.row.eval(t, b);
      if (site.row_mod != 0) {
        const auto m = static_cast<std::int64_t>(site.row_mod);
        row = ((row % m) + m) % m;
      }
      const std::int64_t col = ((site.col.eval(t, b) % w) + w) % w;
      trace.push_back((row + site.row_base) * w + col);
    } else {
      trace.push_back(static_cast<std::int64_t>(opaque[t]));
    }
  }
  return trace;
}

TEST(KernelIr, LaneSteppedMaterializeMatchesPerLaneEval) {
  util::Pcg32 rng(2024, 11);
  const auto coeff = [&] {
    return static_cast<std::int64_t>(rng.bounded(201)) - 100;
  };
  std::vector<std::int64_t> buffer;
  for (int trial = 0; trial < 2000; ++trial) {
    KernelDesc kernel;
    kernel.width = 1 + rng.bounded(64);
    kernel.rows = 64;
    const std::uint32_t nvars = rng.bounded(4);
    for (std::uint32_t v = 0; v < nvars; ++v) {
      kernel.vars.push_back({"v" + std::to_string(v), 1 + rng.bounded(9)});
    }
    const auto expr = [&] {
      AffineExpr e{coeff() * 50, coeff(), {}};
      // Trailing coefficients may be missing (treated as zero).
      const std::uint32_t given = rng.bounded(nvars + 1);
      for (std::uint32_t v = 0; v < given; ++v) e.coeffs.push_back(coeff());
      return e;
    };
    AccessSite site;
    site.lanes = rng.bounded(2) == 0 ? 0 : 1 + rng.bounded(kernel.width);
    switch (rng.bounded(3)) {
      case 0:
        site.form = IndexForm::kFlat;
        site.flat = expr();
        break;
      case 1:
        site.form = IndexForm::kRowCol;
        site.row = expr();
        site.col = expr();
        site.row_mod = rng.bounded(2) == 0 ? 0 : 1 + rng.bounded(40);
        site.row_base = coeff();
        break;
      default: {
        site.form = IndexForm::kOpaque;
        const std::uint64_t salt = rng.bounded(1000);
        site.opaque = [salt](std::span<const std::uint64_t> b,
                             std::span<std::uint64_t> addrs) {
          for (std::size_t lane = 0; lane < addrs.size(); ++lane) {
            std::uint64_t a = salt ^ (lane * 7u);
            for (const std::uint64_t x : b) a = a * 31 + x;
            addrs[lane] = a % 4096;
          }
        };
        break;
      }
    }
    std::vector<std::uint64_t> binding;
    for (const LoopVar& var : kernel.vars) {
      binding.push_back(rng.bounded(static_cast<std::uint32_t>(var.count)));
    }
    const auto expected = reference_trace(kernel, site, binding);
    EXPECT_EQ(materialize_site(kernel, site, binding), expected)
        << "trial " << trial;
    materialize_site(kernel, site, binding, buffer);  // reused buffer
    EXPECT_EQ(buffer, expected) << "trial " << trial;
  }
}

TEST(KernelIr, ValidationCatchesStructuralErrors) {
  KernelDesc kernel = crsw_kernel();
  EXPECT_TRUE(validate_kernel(kernel).empty());

  kernel.vars.push_back({"lane", 4});  // reserved name
  kernel.vars.push_back({"u", 2});     // duplicate
  kernel.vars.push_back({"z", 0});     // zero trip count
  kernel.sites[0].lanes = 99;          // lanes > width
  const auto errors = validate_kernel(kernel);
  EXPECT_EQ(errors.size(), 4u);

  KernelDesc opaque = crsw_kernel();
  opaque.sites[0].form = IndexForm::kOpaque;  // no callback attached
  EXPECT_FALSE(validate_kernel(opaque).empty());

  KernelDesc empty = crsw_kernel();
  empty.sites.clear();
  EXPECT_FALSE(validate_kernel(empty).empty());
}

TEST(KernelIr, BindingCountSaturates) {
  KernelDesc kernel = crsw_kernel();
  EXPECT_EQ(kernel.binding_count(), 8u);
  kernel.vars = {{"a", 1ull << 20}, {"b", 1ull << 20}, {"c", 1ull << 20}};
  EXPECT_EQ(kernel.binding_count(), 1ull << 60);
  kernel.vars.push_back({"d", 1ull << 20});
  EXPECT_EQ(kernel.binding_count(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(KernelIr, ParseTextRoundTrip) {
  const KernelDesc kernel = parse_kernel_text(R"(
# the naive transpose, as DESIGN.md's walkthrough writes it
kernel naive
width 8
rows 16
var u 8
site read-A  load  flat lane=1 u=8
site write-B store flat lane=8 u=1 const=64
site diag    store row lane=1 u=1 mod=8 base=8 col lane=1
)");
  EXPECT_EQ(kernel.name, "naive");
  EXPECT_EQ(kernel.width, 8u);
  EXPECT_EQ(kernel.rows, 16u);
  ASSERT_EQ(kernel.vars.size(), 1u);
  ASSERT_EQ(kernel.sites.size(), 3u);
  EXPECT_EQ(kernel.sites[0].dir, AccessDir::kLoad);
  EXPECT_EQ(kernel.sites[1].flat.base, 64);
  EXPECT_EQ(kernel.sites[1].flat.lane_coeff, 8);
  EXPECT_EQ(kernel.sites[2].form, IndexForm::kRowCol);
  EXPECT_EQ(kernel.sites[2].row_mod, 8u);
  EXPECT_EQ(kernel.sites[2].row_base, 8);
}

TEST(KernelIr, ParseErrorsCarryLineNumbers) {
  const auto expect_throw_with = [](const std::string& text,
                                    const std::string& needle) {
    try {
      (void)parse_kernel_text(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };
  expect_throw_with("kernel k\nrows 1\nsite s load flat lane=",
                    "line 3");
  expect_throw_with("kernel k\nrows 1\nsite s read flat lane=1",
                    "direction");
  expect_throw_with("kernel k\nrows 1\nsite s load flat bogus=1",
                    "unknown variable");
  expect_throw_with("kernel k\nrows 1\nsite s load row lane=1",
                    "'col' section");
  expect_throw_with("kernel k\nrows 1\nsite s load flat mod=3",
                    "only applies to the row form");
  expect_throw_with("rows 1\nvar u 4", "missing 'kernel");
  expect_throw_with("kernel k\nwobble 3", "unknown directive");
}

TEST(KernelIr, ParseBarrierAndWarpRoundTrip) {
  const KernelDesc kernel = parse_kernel_text(R"(
kernel tiled
width 8
rows 16
var u 8
site stage store flat lane=1 u=8 warp=u
barrier
site drain load  flat lane=8 u=1 warp=u
)");
  ASSERT_EQ(kernel.sites.size(), 2u);
  EXPECT_EQ(kernel.sites[0].warp, "u");
  EXPECT_EQ(kernel.sites[1].warp, "u");
  ASSERT_EQ(kernel.barriers.size(), 1u);
  EXPECT_EQ(kernel.barriers[0], 1u);  // between stage and drain
  EXPECT_EQ(kernel.num_phases(), 2u);
  EXPECT_EQ(kernel.site_phase(0), 0u);
  EXPECT_EQ(kernel.site_phase(1), 1u);

  // A leading barrier is legal but vacuous: position 0, phase shifts.
  const KernelDesc leading = parse_kernel_text(
      "kernel k\nwidth 8\nrows 2\nbarrier\nsite s load flat lane=1\n");
  ASSERT_EQ(leading.barriers.size(), 1u);
  EXPECT_EQ(leading.barriers[0], 0u);
  EXPECT_EQ(leading.site_phase(0), 1u);
}

// Satellite coverage for the race-bearing grammar: malformed barrier
// lines, duplicate site names, overflowing affine coefficients and warp
// attribute misuse must all fail with line-numbered diagnostics.
TEST(KernelIr, ParseRejectsRaceGrammarMisuse) {
  const auto expect_throw_with = [](const std::string& text,
                                    const std::string& needle) {
    try {
      (void)parse_kernel_text(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };
  // Malformed barrier lines: the directive takes no arguments, and the
  // diagnostic names the offending line.
  expect_throw_with("kernel k\nrows 1\nbarrier 3", "barrier takes no");
  expect_throw_with("kernel k\nrows 1\nbarrier 3", "line 3");
  expect_throw_with("kernel k\nrows 1\nsite s load flat lane=1\nbarrier x",
                    "line 4");

  // Duplicate site names are a validation error (program order needs
  // unambiguous cross-references from findings back to sites).
  expect_throw_with(
      "kernel k\nwidth 8\nrows 2\n"
      "site s load flat lane=1\nsite s store flat lane=1\n",
      "is invalid");
  expect_throw_with(
      "kernel k\nwidth 8\nrows 2\n"
      "site s load flat lane=1\nsite s store flat lane=1\n",
      "duplicate site 's'");

  // Overflowing affine coefficients must not wrap silently.
  expect_throw_with(
      "kernel k\nrows 1\nsite s load flat lane=99999999999999999999999",
      "integer out of range");
  expect_throw_with(
      "kernel k\nrows 1\nsite s load flat lane=99999999999999999999999",
      "line 3");
  expect_throw_with("kernel k\nwidth 99999999999999999999999\nrows 1",
                    "line 2");

  // Warp attribute misuse: unknown variable, duplicate attribute.
  expect_throw_with("kernel k\nrows 1\nsite s load flat lane=1 warp=v",
                    "unknown warp variable 'v'");
  expect_throw_with(
      "kernel k\nrows 1\nvar u 2\nsite s load flat lane=1 warp=u warp=u",
      "duplicate 'warp' attribute");
}

TEST(KernelIr, ParseFuzzTruncatedTextsNeverCrash) {
  // Deterministic fuzz: every prefix of a valid text (and the same with
  // one byte deleted at each position) must either parse or throw
  // std::invalid_argument — never crash, hang or throw anything else.
  const std::string text =
      "kernel tiled\nwidth 8\nrows 16\nvar u 8\n"
      "site stage store flat lane=1 u=8 warp=u\nbarrier\n"
      "site drain load flat lane=8 u=1 warp=u const=64\n";
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  const auto probe = [&](const std::string& mutated) {
    try {
      const KernelDesc kernel = parse_kernel_text(mutated);
      EXPECT_FALSE(kernel.sites.empty());
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  };
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    probe(text.substr(0, cut));
  }
  for (std::size_t at = 0; at < text.size(); ++at) {
    probe(text.substr(0, at) + text.substr(at + 1));
  }
  EXPECT_GT(parsed, 0u);    // the unmutated tail cases do parse
  EXPECT_GT(rejected, 0u);  // and plenty of mutants are rejected
}

// --- symbolic passes -------------------------------------------------

TEST(Passes, ResidueClosureFindsWorstBindingCrsw) {
  const KernelDesc kernel = crsw_kernel();
  const auto analysis = analyze_kernel(kernel, Scheme::kRaw);
  ASSERT_EQ(analysis.sites.size(), 2u);

  // Read side: row-local, exact 1 over every binding.
  EXPECT_TRUE(analysis.sites[0].cert.exact());
  EXPECT_EQ(analysis.sites[0].cert.bound, 1.0);
  EXPECT_EQ(analysis.sites[0].coverage, Coverage::kSymbolic);
  EXPECT_EQ(analysis.sites[0].binding_count, 8u);

  // Write side: stride-w column, exact w, and the worst site overall.
  EXPECT_TRUE(analysis.sites[1].cert.exact());
  EXPECT_EQ(analysis.sites[1].cert.bound, 8.0);
  EXPECT_EQ(analysis.worst_site, 1u);
  EXPECT_EQ(analysis.worst.bound, 8.0);
  ASSERT_EQ(analysis.sites[1].witness.size(), 1u);
  EXPECT_EQ(analysis.sites[1].witness[0].first, "u");
  ASSERT_EQ(analysis.sites[1].witness_trace.size(), 8u);
}

TEST(Passes, RapRescuesTheStrideWrite) {
  const auto analysis = analyze_kernel(crsw_kernel(), Scheme::kRap);
  EXPECT_TRUE(analysis.worst.exact());
  EXPECT_EQ(analysis.worst.bound, 1.0);
}

TEST(Passes, IntervalDetectsOutOfBounds) {
  KernelDesc kernel = crsw_kernel();
  kernel.sites[1].flat.base = 100;  // pushes the top addresses past 128
  const auto analysis = analyze_kernel(kernel, Scheme::kRaw);
  EXPECT_TRUE(analysis.any_out_of_bounds);
  EXPECT_TRUE(analysis.sites[1].out_of_bounds);
  EXPECT_EQ(analysis.sites[1].cert.rule, "out-of-bounds");
  EXPECT_GE(analysis.sites[1].address_high, 128);

  KernelDesc negative = crsw_kernel();
  negative.sites[0].flat.base = -1;
  EXPECT_TRUE(analyze_kernel(negative, Scheme::kRaw).any_out_of_bounds);
}

TEST(Passes, ResidueClosureSeesNonZeroBindingWorstCase) {
  // addr = lane + 4*u over a width-8 memory: u=0,2 keep the warp in two
  // rows' halves (congestion 1 pattern differs), and the certificate
  // must reflect the worst over ALL u, not u=0 alone. With lane in
  // [0,8) and coeff 4, u odd shifts the warp by half a row; every
  // binding still covers 8 consecutive addresses -> exact 1 under RAW.
  KernelDesc kernel;
  kernel.name = "offset";
  kernel.width = 8;
  kernel.rows = 8;
  kernel.vars = {{"u", 8}};
  AccessSite site;
  site.name = "s";
  site.flat = {0, 1, {4}};
  kernel.sites = {site};
  const auto analysis = analyze_kernel(kernel, Scheme::kRaw);
  EXPECT_TRUE(analysis.worst.exact());
  EXPECT_EQ(analysis.worst.bound, 1.0);
  // Residues collapse u = k and u = k + 2 (same base mod w^2 after two
  // steps of 4 make one row): far fewer classes than bindings.
  EXPECT_LE(analysis.sites[0].classes_analyzed,
            analysis.sites[0].binding_count);
}

TEST(Passes, OpaqueSitesAreEnumerated) {
  KernelDesc kernel;
  kernel.name = "opaque";
  kernel.width = 8;
  kernel.rows = 8;
  kernel.vars = {{"u", 4}};
  AccessSite site;
  site.name = "xor";
  site.form = IndexForm::kOpaque;
  site.opaque = [](std::span<const std::uint64_t> b,
                   std::span<std::uint64_t> addrs) {
    for (std::size_t lane = 0; lane < addrs.size(); ++lane) {
      addrs[lane] = (lane ^ 5) + 8 * (b.empty() ? 0 : b[0]);
    }
  };
  kernel.sites = {site};
  const auto analysis = analyze_kernel(kernel, Scheme::kRaw);
  EXPECT_EQ(analysis.sites[0].coverage, Coverage::kEnumerated);
  EXPECT_TRUE(analysis.worst.exact());
  EXPECT_EQ(analysis.worst.bound, 1.0);  // xor-permuted row stays a row
}

TEST(Passes, SampledCoverageNeverClaimsExactness) {
  KernelDesc kernel;
  kernel.name = "sampled";
  kernel.width = 8;
  kernel.rows = 1u << 14;
  kernel.vars = {{"a", 1u << 10}, {"b", 1u << 10}};
  AccessSite site;
  site.name = "s";
  site.form = IndexForm::kOpaque;
  site.opaque = [](std::span<const std::uint64_t> b,
                   std::span<std::uint64_t> addrs) {
    for (std::size_t lane = 0; lane < addrs.size(); ++lane) {
      addrs[lane] = lane + 8 * (b[0] % 7) + 64 * (b[1] % 5);
    }
  };
  kernel.sites = {site};
  const auto analysis = analyze_kernel(kernel, Scheme::kRaw);
  EXPECT_EQ(analysis.sites[0].coverage, Coverage::kSampled);
  EXPECT_FALSE(analysis.worst.exact());
}

// --- degenerate shapes (single lane, broadcast, empty) ----------------

TEST(PassesDegenerate, SingleLaneSiteIsAlwaysCongestionOne) {
  KernelDesc kernel = crsw_kernel();
  kernel.sites[1].lanes = 1;  // one active lane: nothing to conflict with
  for (const Scheme scheme :
       {Scheme::kRaw, Scheme::kPad, Scheme::kRas, Scheme::kRap}) {
    const auto analysis = analyze_kernel(kernel, scheme);
    EXPECT_EQ(analysis.sites[1].cert.bound, 1.0)
        << core::scheme_name(scheme);
    EXPECT_TRUE(analysis.sites[1].cert.exact());
  }
}

TEST(PassesDegenerate, BroadcastSiteMergesLoadsButNotAtomics) {
  KernelDesc kernel = crsw_kernel();
  kernel.sites[0].flat = {3, 0, {0}};  // all lanes read address 3
  auto analysis = analyze_kernel(kernel, Scheme::kRap);
  EXPECT_EQ(analysis.sites[0].cert.bound, 1.0);  // CRCW-merged
  EXPECT_TRUE(analysis.sites[0].cert.exact());

  kernel.sites[0].dir = AccessDir::kAtomic;  // atomics never merge
  analysis = analyze_kernel(kernel, Scheme::kRap);
  EXPECT_EQ(analysis.sites[0].cert.bound, 8.0);
  EXPECT_TRUE(analysis.sites[0].cert.exact());
  EXPECT_EQ(analysis.sites[0].cert.rule, "atomic-broadcast");
}

TEST(PassesDegenerate, InvalidKernelsThrow) {
  KernelDesc kernel = crsw_kernel();
  kernel.sites.clear();  // empty stream of sites
  EXPECT_THROW((void)analyze_kernel(kernel, Scheme::kRaw),
               std::invalid_argument);
  EXPECT_THROW((void)enumerate_warp_traces(kernel), std::invalid_argument);
  EXPECT_THROW((void)analyze_kernel(crsw_kernel(), Scheme::kRap3P),
               std::invalid_argument);
}

TEST(Passes, EnumerateWarpTracesBridgesToTraceConsumers) {
  const auto traces = enumerate_warp_traces(crsw_kernel());
  ASSERT_FALSE(traces.empty());
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.size(), 8u);
    for (const std::uint64_t addr : trace) EXPECT_LT(addr, 128u);
  }
}

}  // namespace
}  // namespace rapsim::analyze
