// Counting replacements of the global allocation functions: every
// operator new in the program adds one to heap_allocs(). For allocation
// budgets of hot paths (bench_micro_protocols' allocs_per_sample
// counters, tests/test_alloc_budget.cpp).
//
// Include from exactly one translation unit per program: the header
// defines the functions, as replacements must be. Every plain, array and
// nothrow form is replaced so that each pointer is allocated and freed by
// the same pair (a sanitizer's own nothrow new freed through a replaced
// delete would be an alloc-dealloc mismatch). The align_val_t forms stay
// the runtime's, as a matched set, and are not counted.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace psc::bench {

inline std::atomic<std::uint64_t> g_heap_allocs{0};

/// operator new calls so far, all threads.
inline std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace psc::bench

// Not inlined: GCC would otherwise see malloc() and free() under the
// replaced operators at a call site and warn of a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t n) {
  psc::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  psc::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
