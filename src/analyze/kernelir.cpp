#include "analyze/kernelir.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace rapsim::analyze {

std::int64_t AffineExpr::eval(std::uint32_t lane,
                              std::span<const std::uint64_t> binding) const {
  std::int64_t value = base + lane_coeff * static_cast<std::int64_t>(lane);
  for (std::size_t v = 0; v < coeffs.size() && v < binding.size(); ++v) {
    value += coeffs[v] * static_cast<std::int64_t>(binding[v]);
  }
  return value;
}

std::string AffineExpr::describe(const std::vector<LoopVar>& vars) const {
  std::ostringstream out;
  out << base;
  if (lane_coeff != 0) out << " + " << lane_coeff << "*lane";
  for (std::size_t v = 0; v < coeffs.size(); ++v) {
    if (coeffs[v] == 0) continue;
    out << " + " << coeffs[v] << "*"
        << (v < vars.size() ? vars[v].name : "?");
  }
  return out.str();
}

const char* access_dir_name(AccessDir dir) noexcept {
  switch (dir) {
    case AccessDir::kLoad: return "load";
    case AccessDir::kStore: return "store";
    case AccessDir::kAtomic: return "atomic";
  }
  return "?";
}

std::size_t KernelDesc::var_index(std::string_view var_name) const noexcept {
  for (std::size_t v = 0; v < vars.size(); ++v) {
    if (vars[v].name == var_name) return v;
  }
  return vars.size();
}

std::uint64_t KernelDesc::binding_count() const noexcept {
  std::uint64_t total = 1;
  for (const LoopVar& var : vars) {
    if (var.count != 0 &&
        total > std::numeric_limits<std::uint64_t>::max() / var.count) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    total *= var.count;
  }
  return total;
}

std::size_t KernelDesc::site_phase(std::size_t s) const noexcept {
  std::size_t phase = 0;
  for (const std::size_t b : barriers) {
    if (b <= s) ++phase;
  }
  return phase;
}

std::size_t KernelDesc::num_phases() const noexcept {
  return barriers.size() + 1;
}

std::vector<std::string> validate_kernel(const KernelDesc& kernel) {
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(what); };

  if (kernel.width == 0) fail("width must be positive");
  if (kernel.rows == 0) fail("rows must be positive");
  std::unordered_set<std::string> names;
  for (const LoopVar& var : kernel.vars) {
    if (var.name.empty() || var.name == "lane" || var.name == "const") {
      fail("variable name '" + var.name + "' is empty or reserved");
    }
    if (!names.insert(var.name).second) {
      fail("duplicate variable '" + var.name + "'");
    }
    if (var.count == 0) fail("variable '" + var.name + "' has zero range");
  }
  if (kernel.sites.empty()) fail("kernel has no access sites");
  std::unordered_set<std::string> site_names;
  for (const AccessSite& site : kernel.sites) {
    const std::string where = "site '" + site.name + "': ";
    if (!site_names.insert(site.name).second) {
      fail("duplicate site '" + site.name + "'");
    }
    if (site.lanes > kernel.width) {
      fail(where + "active lanes exceed the warp width");
    }
    if (!site.warp.empty() &&
        kernel.var_index(site.warp) == kernel.vars.size()) {
      fail(where + "warp attribute names unknown variable '" + site.warp +
           "'");
    }
    const auto check_expr = [&](const AffineExpr& expr, const char* which) {
      if (expr.coeffs.size() > kernel.vars.size()) {
        fail(where + std::string(which) +
             " has more coefficients than kernel variables");
      }
    };
    switch (site.form) {
      case IndexForm::kFlat:
        check_expr(site.flat, "flat index");
        break;
      case IndexForm::kRowCol:
        check_expr(site.row, "row index");
        check_expr(site.col, "column index");
        break;
      case IndexForm::kOpaque:
        if (!site.opaque) fail(where + "opaque site has no callback");
        break;
    }
  }
  for (std::size_t b = 0; b < kernel.barriers.size(); ++b) {
    if (kernel.barriers[b] > kernel.sites.size()) {
      fail("barrier position " + std::to_string(kernel.barriers[b]) +
           " is past the last site");
    }
    if (b > 0 && kernel.barriers[b] < kernel.barriers[b - 1]) {
      fail("barrier positions are not sorted");
    }
  }
  return errors;
}

void materialize_site(const KernelDesc& kernel, const AccessSite& site,
                      std::span<const std::uint64_t> binding,
                      std::vector<std::int64_t>& trace) {
  const std::uint32_t n = site.lanes == 0 ? kernel.width : site.lanes;
  trace.resize(n);
  switch (site.form) {
    case IndexForm::kFlat: {
      // The binding-dependent part is lane-invariant: evaluate it once,
      // then step by the lane coefficient.
      std::int64_t addr = site.flat.eval(0, binding);
      for (std::uint32_t t = 0; t < n; ++t) {
        trace[t] = addr;
        addr += site.flat.lane_coeff;
      }
      break;
    }
    case IndexForm::kRowCol: {
      const std::int64_t w = static_cast<std::int64_t>(kernel.width);
      // Both indices are stepped in their residue ring when reduced, so
      // no lane divides.
      const std::int64_t m = static_cast<std::int64_t>(site.row_mod);
      std::int64_t row = site.row.eval(0, binding);
      std::int64_t row_step = site.row.lane_coeff;
      if (m != 0) {
        row = static_cast<std::int64_t>(mod_pos(row, site.row_mod));
        row_step = static_cast<std::int64_t>(mod_pos(row_step, site.row_mod));
      }
      auto col = static_cast<std::int64_t>(
          mod_pos(site.col.eval(0, binding), kernel.width));
      const auto col_step =
          static_cast<std::int64_t>(mod_pos(site.col.lane_coeff, kernel.width));
      for (std::uint32_t t = 0; t < n; ++t) {
        trace[t] = (row + site.row_base) * w + col;
        row += row_step;
        if (m != 0 && row >= m) row -= m;
        col += col_step;
        if (col >= w) col -= w;
      }
      break;
    }
    case IndexForm::kOpaque:
      // The callback writes u64 addresses; int64_t storage may be
      // accessed through its unsigned counterpart, and reading a word
      // back as signed is the same conversion a cast would make.
      site.opaque(binding,
                  std::span<std::uint64_t>(
                      reinterpret_cast<std::uint64_t*>(trace.data()), n));
      break;
  }
}

std::vector<std::int64_t> materialize_site(
    const KernelDesc& kernel, const AccessSite& site,
    std::span<const std::uint64_t> binding) {
  std::vector<std::int64_t> trace;
  materialize_site(kernel, site, binding, trace);
  return trace;
}

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("kernel text, line " + std::to_string(line) +
                              ": " + what);
}

std::int64_t parse_int(const std::string& token, std::size_t line) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(token, &used);
    if (used != token.size()) parse_fail(line, "bad integer '" + token + "'");
    return value;
  } catch (const std::invalid_argument&) {
    parse_fail(line, "bad integer '" + token + "'");
  } catch (const std::out_of_range&) {
    parse_fail(line, "integer out of range '" + token + "'");
  }
}

/// Parse affine terms "lane=1 u=32 const=5" into `expr`; stops at (and
/// consumes nothing of) a token in `stop_words`. Returns extra key-value
/// options ("mod", "base", "lanes") via `options`.
void parse_terms(const KernelDesc& kernel, std::vector<std::string>& tokens,
                 std::size_t& pos, std::size_t line, AffineExpr& expr,
                 const std::vector<std::string>& stop_words,
                 std::vector<std::pair<std::string, std::int64_t>>* options) {
  expr.coeffs.assign(kernel.vars.size(), 0);
  for (; pos < tokens.size(); ++pos) {
    const std::string& token = tokens[pos];
    if (std::find(stop_words.begin(), stop_words.end(), token) !=
        stop_words.end()) {
      return;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      parse_fail(line, "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::int64_t value = parse_int(token.substr(eq + 1), line);
    if (key == "lane") {
      expr.lane_coeff = value;
    } else if (key == "const") {
      expr.base = value;
    } else if (key == "mod" || key == "base" || key == "lanes") {
      if (options == nullptr) {
        parse_fail(line, "'" + key + "' is not valid here");
      }
      options->emplace_back(key, value);
    } else {
      const std::size_t v = kernel.var_index(key);
      if (v == kernel.vars.size()) {
        parse_fail(line, "unknown variable '" + key + "'");
      }
      expr.coeffs[v] = value;
    }
  }
}

}  // namespace

KernelDesc parse_kernel_text(const std::string& text,
                             std::uint32_t default_width) {
  KernelDesc kernel;
  kernel.width = default_width;

  std::istringstream stream(text);
  std::string raw_line;
  std::size_t line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    const std::size_t hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.erase(hash);
    std::istringstream words(raw_line);
    std::vector<std::string> tokens;
    for (std::string word; words >> word;) tokens.push_back(word);
    if (tokens.empty()) continue;

    const std::string& head = tokens[0];
    if (head == "kernel") {
      if (tokens.size() != 2) parse_fail(line_no, "kernel <name>");
      kernel.name = tokens[1];
    } else if (head == "width") {
      if (tokens.size() != 2) parse_fail(line_no, "width <w>");
      kernel.width = static_cast<std::uint32_t>(parse_int(tokens[1], line_no));
    } else if (head == "rows") {
      if (tokens.size() != 2) parse_fail(line_no, "rows <r>");
      kernel.rows = static_cast<std::uint64_t>(parse_int(tokens[1], line_no));
    } else if (head == "var") {
      if (tokens.size() != 3) parse_fail(line_no, "var <name> <count>");
      if (!kernel.sites.empty()) {
        parse_fail(line_no, "declare all variables before the first site");
      }
      kernel.vars.push_back(
          {tokens[1],
           static_cast<std::uint64_t>(parse_int(tokens[2], line_no))});
    } else if (head == "barrier") {
      if (tokens.size() != 1) {
        parse_fail(line_no, "barrier takes no arguments");
      }
      kernel.barriers.push_back(kernel.sites.size());
    } else if (head == "site") {
      if (tokens.size() < 4) {
        parse_fail(line_no, "site <name> <load|store|atomic> <flat|row> ...");
      }
      AccessSite site;
      site.name = tokens[1];
      // The warp attribute's value is a variable NAME, so pull it out
      // before parse_terms (which reads integer values only).
      for (std::size_t t = 4; t < tokens.size();) {
        if (tokens[t].rfind("warp=", 0) == 0) {
          if (!site.warp.empty()) {
            parse_fail(line_no, "duplicate 'warp' attribute");
          }
          site.warp = tokens[t].substr(5);
          if (kernel.var_index(site.warp) == kernel.vars.size()) {
            parse_fail(line_no, "unknown warp variable '" + site.warp + "'");
          }
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
        } else {
          ++t;
        }
      }
      if (tokens[2] == "load") {
        site.dir = AccessDir::kLoad;
      } else if (tokens[2] == "store") {
        site.dir = AccessDir::kStore;
      } else if (tokens[2] == "atomic") {
        site.dir = AccessDir::kAtomic;
      } else {
        parse_fail(line_no, "direction must be load, store or atomic");
      }
      std::size_t pos = 4;
      std::vector<std::pair<std::string, std::int64_t>> options;
      if (tokens[3] == "flat") {
        site.form = IndexForm::kFlat;
        parse_terms(kernel, tokens, pos, line_no, site.flat, {}, &options);
      } else if (tokens[3] == "row") {
        site.form = IndexForm::kRowCol;
        parse_terms(kernel, tokens, pos, line_no, site.row, {"col"},
                    &options);
        if (pos >= tokens.size() || tokens[pos] != "col") {
          parse_fail(line_no, "row form needs a 'col' section");
        }
        ++pos;  // consume "col"
        parse_terms(kernel, tokens, pos, line_no, site.col, {}, &options);
      } else {
        parse_fail(line_no, "index form must be 'flat' or 'row'");
      }
      for (const auto& [key, value] : options) {
        if (key == "mod") {
          if (site.form != IndexForm::kRowCol) {
            parse_fail(line_no, "'mod' only applies to the row form");
          }
          site.row_mod = static_cast<std::uint64_t>(value);
        } else if (key == "base") {
          if (site.form != IndexForm::kRowCol) {
            parse_fail(line_no, "'base' only applies to the row form");
          }
          site.row_base = value;
        } else if (key == "lanes") {
          site.lanes = static_cast<std::uint32_t>(value);
        }
      }
      kernel.sites.push_back(std::move(site));
    } else {
      parse_fail(line_no, "unknown directive '" + head + "'");
    }
  }

  if (kernel.name.empty()) {
    throw std::invalid_argument("kernel text: missing 'kernel <name>' line");
  }
  const auto errors = validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("kernel '" + kernel.name +
                                "' is invalid: " + errors.front());
  }
  return kernel;
}

}  // namespace rapsim::analyze
