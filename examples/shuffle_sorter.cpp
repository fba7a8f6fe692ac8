// Stone's shuffle-based bitonic sorter, inside out.
//
//   $ ./examples/shuffle_sorter [n]
//
// Prints the full register program of the lg^2 n-step shuffle-based
// bitonic sorter for a small n (every step: shuffle, then one of
// {+,-,0,1} per register pair), demonstrates the circuit/register model
// equivalence, and sorts a sample input step by step.
#include <cstdio>
#include <cstdlib>

#include "core/register_network.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "perm/permutation.hpp"
#include "sim/bitparallel.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

using namespace shufflebound;

int main(int argc, char** argv) {
  const wire_t n = argc > 1 ? static_cast<wire_t>(std::atoi(argv[1])) : 8;
  if (!is_pow2(n) || n < 4 || n > 16) {
    std::fprintf(stderr, "n must be 4, 8, or 16 for readable output\n");
    return 1;
  }
  const std::uint32_t d = log2_exact(n);
  const RegisterNetwork net = bitonic_on_shuffle(n);
  std::printf("Stone's bitonic sorter on the perfect shuffle, n=%u:\n", n);
  std::printf("  %u passes of %u shuffle steps = %zu steps total\n", d, d,
              net.depth());
  std::printf("  (the paper's machine model: Pi_i = shuffle for every i)\n\n");

  // The program: one line per step, one op symbol per register pair.
  std::printf("register program (op per pair, '0'=idle '1'=swap '+'/'-'=cmp):\n");
  for (std::size_t s = 0; s < net.depth(); ++s) {
    std::printf("  step %2zu: shuffle, ops = ", s + 1);
    for (const GateOp op : net.step(s).ops)
      std::printf("%c", gate_op_symbol(op));
    std::printf("\n");
  }

  // Sort a sample input, tracing the register contents.
  Prng rng(1);
  const Permutation input = random_permutation(n, rng);
  std::vector<wire_t> values(input.image().begin(), input.image().end());
  std::printf("\ntrace (register contents after each pass of %u steps):\n", d);
  std::printf("  start : ");
  for (const wire_t v : values) std::printf("%2u ", v);
  std::printf("\n");
  RegisterNetwork pass(n);
  for (std::size_t s = 0; s < net.depth(); ++s) {
    RegisterNetwork one(n);
    one.add_step(net.step(s));
    one.evaluate_in_place(values);
    if ((s + 1) % d == 0) {
      std::printf("  pass %zu: ", (s + 1) / d);
      for (const wire_t v : values) std::printf("%2u ", v);
      std::printf("\n");
    }
  }

  // Equivalence with the circuit model (the Section 1 claim).
  const FlattenedNetwork flat = register_to_circuit(net);
  std::printf("\ncircuit-model flattening: depth=%zu comparators=%zu "
              "(register form: %zu)\n",
              flat.circuit.depth(), flat.circuit.comparator_count(),
              net.comparator_count());
  std::printf("0-1 certification of both forms: circuit=%s register=%s\n",
              zero_one_check(flat.circuit).sorts_all ? "sorts" : "FAILS",
              zero_one_check(net).sorts_all ? "sorts" : "FAILS");
  return 0;
}
