// Counts this thread's heap allocations by replacing the global operator
// new, so a test can assert that a step allocates nothing once its
// scratch exists. It defines the replacement functions, so include it
// from exactly one translation unit of a test executable.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace shufflebound::testenv {

inline thread_local std::size_t g_allocations = 0;

}  // namespace shufflebound::testenv

void* operator new(std::size_t size) {
  ++shufflebound::testenv::g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC cannot see that the replaced operator new above is malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
