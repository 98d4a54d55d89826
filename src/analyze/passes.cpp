#include "analyze/passes.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>

namespace rapsim::analyze {

namespace {

using Binding = std::vector<std::uint64_t>;

/// States past this product leave the symbolic path (a user kernel with a
/// huge row_mod or width); the site is then enumerated instead.
constexpr std::uint64_t kStateCap = 1u << 16;

/// Residues a coefficient can reach: c*i mod m cycles with this period.
std::uint64_t residue_period(std::int64_t coeff, std::uint64_t m) {
  return m / std::gcd(mod_pos(coeff, m), m);
}

/// A site's stride lattice. States are pairs (a mod ma, b mod mb)
/// encoded as a*mb + b; for flat sites mb = 1 and `a` is the base
/// address (bank behaviour is periodic in it with period w^2), for
/// row/col sites `a` is the row expression's constant part and `b` the
/// column's, which evolve jointly over the bindings.
struct Lattice {
  std::uint64_t ma = 1;
  std::uint64_t mb = 1;
  std::int64_t base_a = 0;
  std::int64_t base_b = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> coeffs;  // per var
};

Lattice site_lattice(const KernelDesc& kernel, const AccessSite& site) {
  Lattice lattice;
  const std::uint64_t w = kernel.width;
  lattice.coeffs.reserve(kernel.vars.size());
  if (site.form == IndexForm::kFlat) {
    lattice.ma = w * w;
    lattice.base_a = site.flat.base;
    for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
      lattice.coeffs.emplace_back(site.flat.coeff(v), 0);
    }
  } else {
    lattice.ma = site.row_mod != 0 ? site.row_mod : w;
    lattice.mb = w;
    lattice.base_a = site.row.base;
    lattice.base_b = site.col.base;
    for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
      lattice.coeffs.emplace_back(site.row.coeff(v), site.col.coeff(v));
    }
  }
  return lattice;
}

/// The reachable states in ascending state order, each with one witness
/// binding (every kernel variable in declaration order).
struct Residues {
  std::size_t vars = 0;
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> bindings;  // row k belongs to states[k]

  [[nodiscard]] std::span<const std::uint64_t> binding(std::size_t k) const {
    return {bindings.data() + k * vars, vars};
  }
};

/// The stride-lattice closure: a sweep per loop variable over a sparse
/// frontier. A new state keeps the binding of the first (lowest) frontier
/// state that reaches it, at the fewest steps. A variable whose steps are
/// 0 mod (ma, mb), or whose trip count is 1, only ever contributes the
/// value 0, so it costs no sweep: the bindings start zeroed.
Residues reach_residues(const KernelDesc& kernel, const Lattice& lattice) {
  const std::uint64_t ma = lattice.ma;
  const std::uint64_t mb = lattice.mb;
  const std::size_t vars = kernel.vars.size();
  Residues reach;
  reach.vars = vars;
  reach.states.push_back(mod_pos(lattice.base_a, ma) * mb +
                         mod_pos(lattice.base_b, mb));
  reach.bindings.assign(vars, 0);

  // Per state: the sweep that last reached it (0 = none yet), and from
  // which frontier entry at which step.
  std::vector<std::uint32_t> seen;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> step;
  std::vector<std::uint64_t> found;
  Residues next;
  next.vars = vars;
  std::uint32_t sweep = 0;
  for (std::size_t v = 0; v < vars; ++v) {
    const auto [ca, cb] = lattice.coeffs[v];
    const std::uint64_t period =
        std::lcm(residue_period(ca, ma), residue_period(cb, mb));
    const std::uint64_t limit = std::min(kernel.vars[v].count, period);
    if (limit == 1) continue;
    if (seen.empty()) {
      seen.assign(ma * mb, 0);
      parent.resize(ma * mb);
      step.resize(ma * mb);
    }
    ++sweep;
    const std::uint64_t step_a = mod_pos(ca, ma);
    const std::uint64_t step_b = mod_pos(cb, mb);
    found.clear();
    for (std::size_t k = 0; k < reach.states.size(); ++k) {
      std::uint64_t ra = reach.states[k] / mb;
      std::uint64_t rb = reach.states[k] % mb;
      for (std::uint64_t i = 0; i < limit; ++i) {
        const std::uint64_t idx = ra * mb + rb;
        if (seen[idx] != sweep) {
          seen[idx] = sweep;
          parent[idx] = static_cast<std::uint32_t>(k);
          step[idx] = i;
          found.push_back(idx);
        }
        ra += step_a;
        if (ra >= ma) ra -= ma;
        rb += step_b;
        if (rb >= mb) rb -= mb;
      }
    }
    std::sort(found.begin(), found.end());
    next.states.swap(found);
    next.bindings.resize(next.states.size() * vars);
    for (std::size_t k = 0; k < next.states.size(); ++k) {
      const std::uint64_t idx = next.states[k];
      const auto from = reach.binding(parent[idx]);
      std::uint64_t* row = next.bindings.data() + k * vars;
      std::copy(from.begin(), from.end(), row);
      row[v] = step[idx];
    }
    std::swap(reach, next);
  }
  return reach;
}

/// Min/max of an affine expression over the binding box and the active
/// lanes — attained at per-variable extremes, so O(#vars).
std::pair<std::int64_t, std::int64_t> expr_interval(
    const KernelDesc& kernel, const AffineExpr& expr, std::uint32_t lanes) {
  std::int64_t lo = expr.base;
  std::int64_t hi = expr.base;
  const auto widen = [&](std::int64_t coeff, std::uint64_t count) {
    const std::int64_t span =
        coeff * static_cast<std::int64_t>(count - 1);
    if (span >= 0) {
      hi += span;
    } else {
      lo += span;
    }
  };
  widen(expr.lane_coeff, lanes);
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    widen(expr.coeff(v), kernel.vars[v].count);
  }
  return {lo, hi};
}

/// Binding attaining the expression's maximum (or minimum).
Binding extreme_binding(const KernelDesc& kernel, const AffineExpr& expr,
                        bool maximize) {
  Binding binding;
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    const bool take_top = (expr.coeff(v) > 0) == maximize;
    binding.push_back(take_top ? kernel.vars[v].count - 1 : 0);
  }
  return binding;
}

/// Prove one materialized class. Atomics need care only when addresses
/// repeat: same-address atomic requests do NOT merge (each needs its own
/// bank cycle), so the CRCW-merging rules would under-count them.
CongestionCertificate prove_class(const std::vector<std::uint64_t>& trace,
                                  std::uint32_t width, std::uint64_t size,
                                  core::Scheme scheme, AccessDir dir) {
  if (dir == AccessDir::kAtomic && !trace.empty()) {
    std::vector<std::uint64_t> sorted(trace);
    std::sort(sorted.begin(), sorted.end());
    const bool duplicates =
        std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
    if (duplicates) {
      CongestionCertificate cert;
      cert.scheme = scheme;
      cert.pattern = "atomic stream of " + std::to_string(trace.size()) +
                     " requests with repeated addresses";
      if (sorted.front() == sorted.back()) {
        cert.kind = BoundKind::kExact;
        cert.bound = static_cast<double>(trace.size());
        cert.rule = "atomic-broadcast";
        cert.claim =
            "atomics to one address serialize: every request needs its own "
            "bank cycle under any scheme";
        return cert;
      }
      if (scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad) {
        std::vector<std::uint64_t> per_bank(width, 0);
        std::uint64_t worst = 0;
        for (const std::uint64_t a : sorted) {
          const std::uint64_t bank = scheme == core::Scheme::kRaw
                                         ? a % width
                                         : (a / width + a) % width;
          worst = std::max(worst, ++per_bank[bank]);
        }
        cert.kind = BoundKind::kExact;
        cert.bound = static_cast<double>(worst);
        cert.rule = "atomic-direct-eval";
        cert.claim =
            "unmerged atomic requests counted against the scheme's closed "
            "bank form";
        return cert;
      }
      cert.kind = BoundKind::kExpectedUpper;
      cert.bound = static_cast<double>(trace.size());
      cert.rule = "atomic-trivial-upper";
      cert.claim =
          "repeated-address atomics under a randomized scheme: congestion "
          "never exceeds the request count";
      return cert;
    }
  }
  // Loads/stores, and atomics whose addresses are pairwise distinct (no
  // merging can occur, so the merge-based rules are exact).
  return prove_trace(trace, width, size, scheme);
}

CongestionCertificate out_of_bounds_certificate(core::Scheme scheme,
                                                std::uint32_t lanes,
                                                std::int64_t lo,
                                                std::int64_t hi,
                                                std::uint64_t size) {
  CongestionCertificate cert;
  cert.scheme = scheme;
  cert.kind = BoundKind::kExpectedUpper;
  cert.bound = static_cast<double>(lanes);
  cert.rule = "out-of-bounds";
  std::ostringstream claim;
  claim << "some binding addresses [" << lo << ", " << hi
        << "], outside the " << size << "-word memory; congestion is "
        << "bounded only by the lane count";
  cert.claim = claim.str();
  cert.pattern = "out-of-bounds access site";
  return cert;
}

void record_witness(const KernelDesc& kernel, SiteAnalysis& analysis,
                    const Binding& binding,
                    const std::vector<std::int64_t>& trace) {
  analysis.witness.clear();
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    analysis.witness.emplace_back(kernel.vars[v].name,
                                  v < binding.size() ? binding[v] : 0);
  }
  analysis.witness_trace.assign(trace.begin(), trace.end());
}

/// Fold one proven class into the running worst, mirroring the
/// prove_worst_warp convention: the bound is the max, the kind is exact
/// only if every class is exact.
struct WorstTracker {
  CongestionCertificate cert;
  Binding binding;
  std::vector<std::int64_t> trace;
  bool all_exact = true;
  bool first = true;

  void fold(CongestionCertificate candidate,
            std::span<const std::uint64_t> b,
            const std::vector<std::int64_t>& t) {
    all_exact = all_exact && candidate.exact();
    if (first || candidate.bound > cert.bound) {
      cert = std::move(candidate);
      binding.assign(b.begin(), b.end());
      trace = t;
      first = false;
    }
  }
  void finish() {
    if (!all_exact && cert.kind == BoundKind::kExact) {
      cert.kind = BoundKind::kExpectedUpper;
    }
  }
};

bool scheme_supported(core::Scheme scheme) {
  return scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad ||
         scheme == core::Scheme::kRas || scheme == core::Scheme::kRap;
}

void require_valid(const KernelDesc& kernel, core::Scheme scheme) {
  if (!scheme_supported(scheme)) {
    throw std::invalid_argument(
        "analyze_kernel: scheme must be one of RAW, PAD, RAS, RAP");
  }
  const auto errors = validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("analyze_kernel: kernel '" + kernel.name +
                                "' is invalid: " + errors.front());
  }
}

/// Deterministic stratified sample of `want` values from [0, count):
/// always includes both endpoints, spreads the rest evenly.
std::vector<std::uint64_t> sample_values(std::uint64_t count,
                                         std::uint64_t want) {
  std::vector<std::uint64_t> values;
  if (want >= count) {
    for (std::uint64_t i = 0; i < count; ++i) values.push_back(i);
    return values;
  }
  for (std::uint64_t k = 0; k < want; ++k) {
    values.push_back(k * (count - 1) / (want - 1));
  }
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// The bindings the enumerated pass materializes: every value of each
/// variable, or past kEnumerationCap bindings a stratified sample.
struct BindingGrid {
  std::vector<std::vector<std::uint64_t>> values;  // per variable
  bool sampled = false;
};

BindingGrid enumeration_grid(const KernelDesc& kernel) {
  // Per-variable value lists; halve the largest until the product fits.
  std::vector<std::uint64_t> counts;
  counts.reserve(kernel.vars.size());
  for (const LoopVar& var : kernel.vars) counts.push_back(var.count);
  const auto product = [&] {
    std::uint64_t p = 1;
    for (const std::uint64_t c : counts) {
      if (c != 0 && p > kEnumerationCap * 4 / c) return kEnumerationCap + 1;
      p *= c;
    }
    return p;
  };
  BindingGrid grid;
  while (product() > kEnumerationCap) {
    auto widest = std::max_element(counts.begin(), counts.end());
    if (*widest <= 2) break;
    *widest = (*widest + 1) / 2;
    grid.sampled = true;
  }
  grid.values.reserve(kernel.vars.size());
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    grid.values.push_back(sample_values(kernel.vars[v].count, counts[v]));
  }
  return grid;
}

/// Calls visit(binding) for every binding of the grid, the first variable
/// fastest, until visit returns false.
template <typename Visit>
void for_each_binding(const BindingGrid& grid, Visit&& visit) {
  const std::size_t vars = grid.values.size();
  Binding odometer(vars, 0);
  Binding binding(vars, 0);
  for (;;) {
    for (std::size_t v = 0; v < vars; ++v) {
      binding[v] = grid.values[v][odometer[v]];
    }
    if (!visit(binding)) return;
    std::size_t v = 0;
    for (; v < vars; ++v) {
      if (++odometer[v] < grid.values[v].size()) break;
      odometer[v] = 0;
    }
    if (v == vars) return;
  }
}

bool leaves_memory(std::span<const std::int64_t> trace, std::uint64_t size) {
  return std::any_of(trace.begin(), trace.end(), [&](std::int64_t a) {
    return a < 0 || static_cast<std::uint64_t>(a) >= size;
  });
}

SiteAnalysis analyze_site_enumerated(const KernelDesc& kernel,
                                     const AccessSite& site,
                                     core::Scheme scheme) {
  SiteAnalysis analysis;
  analysis.site = site.name;
  analysis.dir = site.dir;
  analysis.binding_count = kernel.binding_count();

  const BindingGrid grid = enumeration_grid(kernel);
  analysis.coverage =
      grid.sampled ? Coverage::kSampled : Coverage::kEnumerated;

  const std::uint64_t size = kernel.size();
  std::map<std::vector<std::int64_t>, Binding> classes;
  for_each_binding(grid, [&](const Binding& binding) {
    classes.emplace(materialize_site(kernel, site, binding), binding);
    return true;
  });

  WorstTracker worst;
  const std::uint32_t lanes = site.lanes == 0 ? kernel.width : site.lanes;
  for (const auto& [trace, binding] : classes) {
    if (leaves_memory(trace, size)) {
      if (!analysis.out_of_bounds) {
        analysis.out_of_bounds = true;
        analysis.address_low = *std::min_element(trace.begin(), trace.end());
        analysis.address_high = *std::max_element(trace.begin(), trace.end());
        worst.fold(out_of_bounds_certificate(scheme, lanes,
                                             analysis.address_low,
                                             analysis.address_high, size),
                   binding, trace);
      }
      continue;
    }
    const std::vector<std::uint64_t> addrs(trace.begin(), trace.end());
    worst.fold(prove_class(addrs, kernel.width, size, scheme, site.dir),
               binding, trace);
  }
  analysis.classes_analyzed = classes.size();
  worst.finish();
  if (grid.sampled && worst.cert.kind == BoundKind::kExact) {
    // An exact claim needs every binding; a sample only observed a max.
    worst.cert.kind = BoundKind::kExpectedUpper;
    worst.cert.claim += " (sampled bindings; coverage is not exhaustive)";
  }
  analysis.cert = std::move(worst.cert);
  record_witness(kernel, analysis, worst.binding, worst.trace);
  return analysis;
}

/// A symbolic site's address interval over every binding and active
/// lane.
struct SiteInterval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] bool leaves(std::uint64_t size) const {
    return lo < 0 || hi >= static_cast<std::int64_t>(size);
  }
};

SiteInterval site_interval(const KernelDesc& kernel, const AccessSite& site) {
  const auto w = static_cast<std::int64_t>(kernel.width);
  const std::uint32_t lanes = site.lanes == 0 ? kernel.width : site.lanes;
  SiteInterval interval;
  if (site.form == IndexForm::kFlat) {
    std::tie(interval.lo, interval.hi) =
        expr_interval(kernel, site.flat, lanes);
  } else if (site.row_mod != 0) {
    interval.lo = site.row_base * w;
    interval.hi =
        (site.row_base + static_cast<std::int64_t>(site.row_mod)) * w - 1;
  } else {
    const auto [row_lo, row_hi] = expr_interval(kernel, site.row, lanes);
    interval.lo = (row_lo + site.row_base) * w;
    interval.hi = (row_hi + site.row_base + 1) * w - 1;
  }
  return interval;
}

SiteAnalysis analyze_site_symbolic(const KernelDesc& kernel,
                                   const AccessSite& site,
                                   core::Scheme scheme) {
  SiteAnalysis analysis;
  analysis.site = site.name;
  analysis.dir = site.dir;
  analysis.coverage = Coverage::kSymbolic;
  analysis.binding_count = kernel.binding_count();

  const std::uint32_t w = kernel.width;
  const std::uint32_t lanes = site.lanes == 0 ? w : site.lanes;
  const std::uint64_t size = kernel.size();

  // Interval pass: decide out-of-bounds before trusting residues (the
  // lattice collapses absolute addresses, so it cannot see bounds).
  const SiteInterval interval = site_interval(kernel, site);
  const std::int64_t lo = interval.lo;
  const std::int64_t hi = interval.hi;
  analysis.address_low = lo;
  analysis.address_high = hi;
  if (interval.leaves(size)) {
    analysis.out_of_bounds = true;
    analysis.cert = out_of_bounds_certificate(scheme, lanes, lo, hi, size);
    // The expression whose extreme binding witnesses the violation.
    const AffineExpr& probe =
        site.form == IndexForm::kFlat ? site.flat : site.row;
    const Binding binding =
        extreme_binding(kernel, probe, /*maximize=*/hi >= 0);
    record_witness(kernel, analysis, binding,
                   materialize_site(kernel, site, binding));
    analysis.classes_analyzed = 0;
    return analysis;
  }

  // Stride-lattice pass: one representative binding per residue class.
  const Residues reach = reach_residues(kernel, site_lattice(kernel, site));
  analysis.classes_analyzed = reach.states.size();

  WorstTracker worst;
  std::vector<std::int64_t> trace;
  std::vector<std::uint64_t> addrs;
  for (std::size_t k = 0; k < reach.states.size(); ++k) {
    materialize_site(kernel, site, reach.binding(k), trace);
    addrs.assign(trace.begin(), trace.end());
    worst.fold(prove_class(addrs, w, size, scheme, site.dir),
               reach.binding(k), trace);
  }
  worst.finish();
  analysis.cert = std::move(worst.cert);
  record_witness(kernel, analysis, worst.binding, worst.trace);
  return analysis;
}

bool symbolic_applicable(const KernelDesc& kernel, const AccessSite& site) {
  if (site.form == IndexForm::kOpaque) return false;
  const std::uint64_t w = kernel.width;
  const std::uint64_t states =
      site.form == IndexForm::kFlat
          ? w * w
          : (site.row_mod != 0 ? site.row_mod : w) * w;
  return states <= kStateCap;
}

/// The bounds decision analyze_kernel records per site, without proving
/// congestion: the interval pass for symbolic sites, the same (possibly
/// sampled) enumeration for the rest.
bool site_out_of_bounds(const KernelDesc& kernel, const AccessSite& site) {
  const std::uint64_t size = kernel.size();
  if (symbolic_applicable(kernel, site)) {
    return site_interval(kernel, site).leaves(size);
  }
  bool out = false;
  std::vector<std::int64_t> trace;
  for_each_binding(enumeration_grid(kernel), [&](const Binding& binding) {
    materialize_site(kernel, site, binding, trace);
    out = leaves_memory(trace, size);
    return !out;
  });
  return out;
}

}  // namespace

const char* coverage_name(Coverage coverage) noexcept {
  switch (coverage) {
    case Coverage::kSymbolic: return "symbolic";
    case Coverage::kEnumerated: return "enumerated";
    case Coverage::kSampled: return "sampled";
  }
  return "?";
}

SiteAnalysis analyze_site(const KernelDesc& kernel, const AccessSite& site,
                          core::Scheme scheme) {
  require_valid(kernel, scheme);
  return symbolic_applicable(kernel, site)
             ? analyze_site_symbolic(kernel, site, scheme)
             : analyze_site_enumerated(kernel, site, scheme);
}

KernelAnalysis analyze_kernel(const KernelDesc& kernel, core::Scheme scheme) {
  require_valid(kernel, scheme);
  KernelAnalysis analysis;
  analysis.kernel = kernel.name;
  analysis.width = kernel.width;
  analysis.rows = kernel.rows;
  analysis.scheme = scheme;

  bool all_exact = true;
  bool first = true;
  for (const AccessSite& site : kernel.sites) {
    SiteAnalysis sa = symbolic_applicable(kernel, site)
                          ? analyze_site_symbolic(kernel, site, scheme)
                          : analyze_site_enumerated(kernel, site, scheme);
    analysis.any_out_of_bounds =
        analysis.any_out_of_bounds || sa.out_of_bounds;
    all_exact = all_exact && sa.cert.exact();
    if (first || sa.cert.bound > analysis.worst.bound) {
      analysis.worst = sa.cert;
      analysis.worst_site = analysis.sites.size();
      first = false;
    }
    analysis.sites.push_back(std::move(sa));
  }
  if (!all_exact && analysis.worst.kind == BoundKind::kExact) {
    // Same convention as prove_worst_warp: a mix of exact and expected
    // per-site bounds only supports an expected-value claim overall.
    analysis.worst.kind = BoundKind::kExpectedUpper;
  }
  return analysis;
}

bool any_out_of_bounds(const KernelDesc& kernel) {
  require_valid(kernel, core::Scheme::kRaw);
  return std::any_of(
      kernel.sites.begin(), kernel.sites.end(),
      [&](const AccessSite& site) { return site_out_of_bounds(kernel, site); });
}

std::vector<std::vector<std::uint64_t>> enumerate_warp_traces(
    const KernelDesc& kernel, std::size_t max_traces) {
  const auto errors = validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("enumerate_warp_traces: kernel '" +
                                kernel.name + "' is invalid: " +
                                errors.front());
  }
  const std::uint64_t size = kernel.size();
  std::vector<std::vector<std::uint64_t>> traces;
  for (const AccessSite& site : kernel.sites) {
    if (traces.size() >= max_traces) break;
    // RAW is cheap and scheme-independent here: we only need the
    // materialized classes, which do not depend on the scheme.
    const SiteAnalysis sa = symbolic_applicable(kernel, site)
                                ? analyze_site_symbolic(kernel, site,
                                                        core::Scheme::kRaw)
                                : analyze_site_enumerated(
                                      kernel, site, core::Scheme::kRaw);
    if (sa.out_of_bounds) continue;
    // Re-enumerate the classes to materialize each one (the analysis
    // keeps only the worst witness); the class count is small.
    if (symbolic_applicable(kernel, site)) {
      const Residues reach =
          reach_residues(kernel, site_lattice(kernel, site));
      std::vector<std::int64_t> trace;
      for (std::size_t k = 0; k < reach.states.size(); ++k) {
        if (traces.size() >= max_traces) break;
        materialize_site(kernel, site, reach.binding(k), trace);
        if (leaves_memory(trace, size)) continue;
        traces.emplace_back(trace.begin(), trace.end());
      }
    } else if (!sa.witness_trace.empty()) {
      traces.push_back(sa.witness_trace);
    }
  }
  return traces;
}

}  // namespace rapsim::analyze
