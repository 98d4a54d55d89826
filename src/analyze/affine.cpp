#include "analyze/affine.hpp"

#include <sstream>

namespace rapsim::analyze {

std::string AffineClass::describe() const {
  std::ostringstream out;
  switch (kind) {
    case AffineKind::kEmpty:
      out << "empty warp";
      break;
    case AffineKind::kConstant:
      out << "constant: a(t) = " << base;
      break;
    case AffineKind::kAffine2d:
      out << "2-D affine: (i, j)(t) = (" << row0 << " + " << row_step
          << "*t, (" << col0 << " + " << col_step << "*t) mod " << width
          << ")";
      break;
    case AffineKind::kAffine1d:
      out << "1-D affine: a(t) = (" << base << " + " << stride << "*t) mod "
          << size;
      break;
    case AffineKind::kNotAffine:
      out << "not affine: " << reason;
      break;
  }
  return out.str();
}

namespace {

/// Reject helper: everything else about the class is left defaulted.
AffineClass rejected(std::uint32_t width, std::uint64_t size,
                     std::size_t threads, std::string reason) {
  AffineClass cls;
  cls.kind = AffineKind::kNotAffine;
  cls.width = width;
  cls.size = size;
  cls.threads = threads;
  cls.reason = std::move(reason);
  return cls;
}

/// Try (i, j)(t) = (row0 + row_step*t, (col0 + col_step*t) mod w). Rows
/// are exact integers; columns wrap. Returns false when any consecutive
/// difference breaks the form.
bool match_affine_2d(std::span<const std::uint64_t> trace,
                     std::uint32_t width, AffineClass& cls) {
  const auto row = [&](std::size_t t) {
    return static_cast<std::int64_t>(trace[t] / width);
  };
  const auto col = [&](std::size_t t) {
    return static_cast<std::uint32_t>(trace[t] % width);
  };
  const std::int64_t row_step = row(1) - row(0);
  const std::uint32_t col_step = (col(1) + width - col(0)) % width;
  for (std::size_t t = 2; t < trace.size(); ++t) {
    if (row(t) - row(t - 1) != row_step) return false;
    if ((col(t) + width - col(t - 1)) % width != col_step) return false;
  }
  cls.kind = AffineKind::kAffine2d;
  cls.row0 = trace[0] / width;
  cls.col0 = col(0);
  cls.row_step = row_step;
  cls.col_step = col_step;
  return true;
}

/// Try a(t) = (base + stride*t) mod size with one canonical stride.
bool match_affine_1d(std::span<const std::uint64_t> trace, std::uint64_t size,
                     AffineClass& cls) {
  const auto diff = [&](std::size_t t) {
    return (trace[t] + size - trace[t - 1]) % size;
  };
  const std::uint64_t stride = diff(1);
  for (std::size_t t = 2; t < trace.size(); ++t) {
    if (diff(t) != stride) return false;
  }
  cls.kind = AffineKind::kAffine1d;
  cls.base = trace[0];
  cls.stride = stride;
  return true;
}

}  // namespace

AffineClass classify_warp(std::span<const std::uint64_t> trace,
                          std::uint32_t width, std::uint64_t size) {
  if (width == 0 || size == 0 || size % width != 0) {
    return rejected(width, size, trace.size(),
                    "geometry must have width > 0 and size a multiple of "
                    "width");
  }
  AffineClass cls;
  cls.width = width;
  cls.size = size;
  cls.threads = trace.size();

  if (trace.empty()) {
    cls.kind = AffineKind::kEmpty;
    return cls;
  }
  for (std::size_t t = 0; t < trace.size(); ++t) {
    if (trace[t] >= size) {
      std::ostringstream why;
      why << "address " << trace[t] << " at lane " << t
          << " is outside the " << size << "-word memory";
      return rejected(width, size, trace.size(), why.str());
    }
  }

  bool constant = true;
  for (std::size_t t = 1; t < trace.size() && constant; ++t) {
    constant = trace[t] == trace[0];
  }
  if (constant) {
    cls.kind = AffineKind::kConstant;
    cls.base = trace[0];
    return cls;
  }

  // 2-D first: it subsumes some 1-D streams (stride-w flat access IS
  // column access) and carries the row trajectory the prover needs.
  if (match_affine_2d(trace, width, cls)) return cls;
  if (match_affine_1d(trace, size, cls)) return cls;

  // Pinpoint the first lane whose difference breaks the 1-D form — the
  // most common reject and the most useful thing to tell the user.
  const std::uint64_t first_diff = (trace[1] + size - trace[0]) % size;
  std::size_t breaker = 2;
  while (breaker < trace.size() &&
         (trace[breaker] + size - trace[breaker - 1]) % size == first_diff) {
    ++breaker;
  }
  std::ostringstream why;
  why << "difference at lane " << breaker << " ("
      << (trace[breaker] + size - trace[breaker - 1]) % size
      << ") breaks the initial stride " << first_diff
      << "; stream is neither 1-D nor 2-D affine";
  return rejected(width, size, trace.size(), why.str());
}

}  // namespace rapsim::analyze
