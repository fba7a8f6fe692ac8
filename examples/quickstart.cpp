// Quickstart: build sorting networks, run them, certify them.
//
//   $ ./examples/quickstart
//
// Walks through the library's basic objects: the circuit and register
// models, Batcher's sorters, Stone's shuffle-based compilation, and the
// 0-1-principle certifier.
#include <cstdio>

#include "analysis/sortedness.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "perm/permutation.hpp"
#include "sim/bitparallel.hpp"
#include "util/prng.hpp"

using namespace shufflebound;

int main() {
  const wire_t n = 16;

  // 1. A classic comparator circuit: Batcher's bitonic sorter.
  const ComparatorNetwork bitonic = bitonic_sorting_network(n);
  const NetworkStats stats = network_stats(bitonic);
  std::printf("bitonic sorter: n=%u depth=%zu comparators=%zu\n", stats.width,
              stats.depth, stats.comparators);

  // 2. Run it on a random permutation.
  Prng rng(2026);
  const Permutation input = random_permutation(n, rng);
  std::vector<wire_t> values(input.image().begin(), input.image().end());
  std::printf("input : ");
  for (const wire_t v : values) std::printf("%2u ", v);
  bitonic.evaluate_in_place(std::span<wire_t>(values));
  std::printf("\noutput: ");
  for (const wire_t v : values) std::printf("%2u ", v);
  std::printf("\n");

  // 3. Certify it exhaustively via the 0-1 principle (2^16 vectors,
  //    bit-parallel - 64 vectors per word).
  const ZeroOneReport report = zero_one_check(bitonic);
  std::printf("0-1 certification: %s (%llu vectors)\n",
              report.sorts_all ? "sorting network" : "NOT a sorting network",
              static_cast<unsigned long long>(report.vectors_checked));

  // 4. The same sorter in the paper's machine model: a register network
  //    whose every step shuffles (Stone's construction, lg^2 n steps).
  const RegisterNetwork stone = bitonic_on_shuffle(n);
  std::printf("shuffle-based form: %zu shuffle steps, shuffle-based=%s, "
              "sorts=%s\n",
              stone.depth(), stone.is_shuffle_based() ? "yes" : "no",
              zero_one_check(stone).sorts_all ? "yes" : "no");

  // 5. Failure injection: drop one comparator and watch certification fail.
  const ComparatorNetwork broken = drop_one_comparator(bitonic, 17);
  const ZeroOneReport broken_report = zero_one_check(broken);
  std::printf("after dropping one comparator: sorts=%s",
              broken_report.sorts_all ? "yes" : "no");
  if (broken_report.failing_vector)
    std::printf(" (counterexample 0/1 vector: 0x%llx)",
                static_cast<unsigned long long>(*broken_report.failing_vector));
  std::printf("\n");
  return 0;
}
