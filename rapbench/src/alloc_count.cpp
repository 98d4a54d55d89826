// Counting global operator new, compiled only into the benchmark's
// executables. Each thread counts its own allocations in a thread_local,
// so the 4-thread Table II sweep pays no shared-counter contention; the
// traced run, which reads the count, is single-threaded. The replaced
// array and nothrow forms call these by default.

#include <cstdint>
#include <cstdlib>
#include <new>

#include "spans.hpp"

namespace {

thread_local std::uint64_t g_allocations = 0;

}  // namespace

std::uint64_t rapbench::allocations() noexcept { return g_allocations; }

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
