#include "permute/offline.hpp"

#include <numeric>
#include <stdexcept>

namespace rapsim::permute {

namespace {

constexpr std::uint32_t kNoEdge = 0xffffffffu;

}  // namespace

dmm::Kernel build_direct_kernel(const core::Permutation& pi,
                                const PermutationLayout& layout) {
  const std::uint64_t n = layout.elements();
  if (pi.size() != n) {
    throw std::invalid_argument(
        "build_direct_kernel: permutation size must equal element count");
  }
  dmm::Kernel kernel;
  kernel.num_threads = static_cast<std::uint32_t>(n);
  dmm::Row reads(kernel.num_threads);
  dmm::Row writes(kernel.num_threads);
  for (std::uint64_t i = 0; i < n; ++i) {
    reads[i] = dmm::ThreadOp::load(layout.a_addr(i));
    writes[i] = dmm::ThreadOp::store(layout.b_addr(pi[i]));
  }
  kernel.push(std::move(reads));
  kernel.push(std::move(writes));
  return kernel;
}

std::vector<std::uint32_t> color_conflict_free(
    const core::Permutation& pi, const PermutationLayout& layout) {
  const std::uint32_t w = layout.width;
  const std::uint64_t n = layout.elements();
  if (pi.size() != n) {
    throw std::invalid_argument(
        "color_conflict_free: permutation size must equal element count");
  }
  const auto degree = static_cast<std::uint32_t>(layout.rows);

  // colorAtL[u * degree + c] = edge currently colored c at left node u.
  std::vector<std::uint32_t> color_at_left(
      static_cast<std::size_t>(w) * degree, kNoEdge);
  std::vector<std::uint32_t> color_at_right(
      static_cast<std::size_t>(w) * degree, kNoEdge);
  std::vector<std::uint32_t> color(n, kNoEdge);
  std::vector<std::uint32_t> edge_left(n), edge_right(n);

  const auto first_free = [&](const std::vector<std::uint32_t>& table,
                              std::uint32_t node) {
    for (std::uint32_t c = 0; c < degree; ++c) {
      if (table[static_cast<std::size_t>(node) * degree + c] == kNoEdge) {
        return c;
      }
    }
    throw std::logic_error("color_conflict_free: no free color (not regular?)");
  };

  for (std::uint64_t e = 0; e < n; ++e) {
    const auto u = static_cast<std::uint32_t>(e % w);          // source bank
    const auto v = static_cast<std::uint32_t>(pi[e] % w);      // dest bank
    edge_left[e] = u;
    edge_right[e] = v;

    const std::uint32_t cu = first_free(color_at_left, u);
    const std::uint32_t cv = first_free(color_at_right, v);
    if (cu != cv) {
      // Free color cu at v by flipping the (cu, cv)-alternating path that
      // starts at v. The path alternates right -> left -> right ...; it
      // can never arrive back at u with color cu (u has cu free), so the
      // flip terminates and stays proper (Kempe chain argument).
      bool at_right = true;        // side of `node`
      std::uint32_t take = cu;     // color the current path edge carries
      std::uint32_t give = cv;     // color it will be flipped to
      std::uint32_t edge =
          color_at_right[static_cast<std::size_t>(v) * degree + cu];
      std::uint32_t node = v;
      while (edge != kNoEdge) {
        auto& table = at_right ? color_at_right : color_at_left;
        auto& other_table = at_right ? color_at_left : color_at_right;
        const std::uint32_t other =
            at_right ? edge_left[edge] : edge_right[edge];
        // The next path edge is the one carrying `give` at `other` — read
        // it BEFORE the recoloring overwrites that slot.
        const std::uint32_t next_edge =
            other_table[static_cast<std::size_t>(other) * degree + give];
        // Recolor `edge` from `take` to `give` at both endpoints. The
        // `take` slot at `node` may already have been overwritten by the
        // previous flip step (the path hands the slot over), so only clear
        // slots that still point at this edge.
        auto& node_take = table[static_cast<std::size_t>(node) * degree + take];
        if (node_take == edge) node_take = kNoEdge;
        auto& other_take =
            other_table[static_cast<std::size_t>(other) * degree + take];
        if (other_take == edge) other_take = kNoEdge;
        table[static_cast<std::size_t>(node) * degree + give] = edge;
        other_table[static_cast<std::size_t>(other) * degree + give] = edge;
        color[edge] = give;
        node = other;
        at_right = !at_right;
        std::swap(take, give);
        edge = next_edge;
      }
    }
    const auto edge_id = static_cast<std::uint32_t>(e);
    color[e] = cu;
    color_at_left[static_cast<std::size_t>(u) * degree + cu] = edge_id;
    color_at_right[static_cast<std::size_t>(v) * degree + cu] = edge_id;
  }
  return color;
}

dmm::Kernel build_scheduled_kernel(const core::Permutation& pi,
                                   const PermutationLayout& layout) {
  const std::uint32_t w = layout.width;
  const std::uint64_t n = layout.elements();
  const auto color = color_conflict_free(pi, layout);

  // Thread assignment: element i goes to thread color(i) * w + src_bank(i);
  // within a color class every source bank appears exactly once, so this
  // is a bijection elements -> threads and warp c executes color class c.
  dmm::Kernel kernel;
  kernel.num_threads = static_cast<std::uint32_t>(n);
  dmm::Row reads(kernel.num_threads);
  dmm::Row writes(kernel.num_threads);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t thread =
        static_cast<std::uint64_t>(color[i]) * w + (i % w);
    reads[thread] = dmm::ThreadOp::load(layout.a_addr(i));
    writes[thread] = dmm::ThreadOp::store(layout.b_addr(pi[i]));
  }
  kernel.push(std::move(reads));
  kernel.push(std::move(writes));
  return kernel;
}

core::Permutation transpose_permutation(std::uint32_t width) {
  const std::uint64_t n = static_cast<std::uint64_t>(width) * width;
  std::vector<std::uint32_t> image(n);
  for (std::uint32_t i = 0; i < width; ++i) {
    for (std::uint32_t j = 0; j < width; ++j) {
      image[static_cast<std::size_t>(i) * width + j] = j * width + i;
    }
  }
  return core::Permutation(std::move(image));
}

core::Permutation bit_reversal_permutation(std::uint32_t n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(
        "bit_reversal_permutation: n must be a power of two");
  }
  std::uint32_t bits = 0;
  while ((1u << bits) < n) ++bits;
  std::vector<std::uint32_t> image(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t rev = 0;
    for (std::uint32_t b = 0; b < bits; ++b) {
      rev |= ((i >> b) & 1u) << (bits - 1 - b);
    }
    image[i] = rev;
  }
  return core::Permutation(std::move(image));
}

core::Permutation stride_permutation(std::uint32_t n, std::uint32_t stride) {
  if (std::gcd(n, stride) != 1) {
    throw std::invalid_argument(
        "stride_permutation: stride must be coprime with n");
  }
  std::vector<std::uint32_t> image(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    image[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * stride) % n);
  }
  return core::Permutation(std::move(image));
}

}  // namespace rapsim::permute
