// The one-call refutation API: scope decisions, certificates, and the
// shuffle-unshuffle out-of-scope contrast (Section 6's open question).
#include "adversary/refuter.hpp"

#include <gtest/gtest.h>

#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/shuffle.hpp"
#include "perm/permutation.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

TEST(Refuter, RefutesShallowShuffleNetwork) {
  Prng rng(1);
  const auto net = random_shuffle_network(32, 8, rng, {10, 5});
  const auto result = refute(net);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_TRUE(verify_certificate(net, *result.certificate).accepted());
  EXPECT_NE(result.detail.find("chunk"), std::string::npos);
}

TEST(Refuter, FullSorterYieldsNoClaim) {
  const auto net = bitonic_on_shuffle(16);
  const auto result = refute(net);
  EXPECT_EQ(result.status, RefutationStatus::TooFewSurvivors);
  EXPECT_FALSE(result.certificate.has_value());
}

TEST(Refuter, ShuffleUnshuffleIsOutOfScope) {
  // The ascend-descend class: the paper's bound explicitly does not
  // apply (near-logarithmic sorters exist there), and the refuter must
  // refuse rather than produce nonsense.
  Prng rng(2);
  RegisterNetwork net = random_shuffle_unshuffle_network(32, 10, rng);
  // Make sure the sample actually uses both permutations.
  while (net.is_shuffle_based())
    net = random_shuffle_unshuffle_network(32, 10, rng);
  EXPECT_TRUE(is_shuffle_unshuffle_based(net));
  const auto result = refute(net);
  EXPECT_EQ(result.status, RefutationStatus::NotInScope);
  EXPECT_NE(result.detail.find("shuffle"), std::string::npos);
}

TEST(Refuter, NonPowerOfTwoOutOfScope) {
  RegisterNetwork net(6);
  const auto result = refute(net);
  EXPECT_EQ(result.status, RefutationStatus::NotInScope);
}

TEST(Refuter, CircuitPathSlicesAndRecognizes) {
  // Two stacked butterflies as a bare circuit: the refuter slices into
  // lg n-level chunks, recognizes each, and refutes.
  const wire_t n = 16;
  ComparatorNetwork net(n);
  net.append(butterfly_rdn(4).net);
  net.append(butterfly_rdn(4).net);
  const auto result = refute(net);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  EXPECT_TRUE(verify_certificate(net, *result.certificate).accepted());
  EXPECT_NE(result.detail.find("2 recognized RDN chunk(s)"),
            std::string::npos);
}

TEST(Refuter, CircuitPathPadsTruncatedTail) {
  // Depth not a multiple of lg n: the final slice is padded with empty
  // levels, which any tree absorbs.
  const wire_t n = 16;
  ComparatorNetwork net(n);
  net.append(butterfly_rdn(4).net);
  net.append(butterfly_rdn(4).net.slice(0, 2));
  const auto result = refute(net);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  EXPECT_TRUE(verify_certificate(net, *result.certificate).accepted());
}

TEST(Refuter, BrickCircuitIsOutOfScope) {
  // The brick network's second level re-compares wires connected in the
  // first within any lg n-slice... actually its first slice IS
  // recognizable for small widths; pick a slice that is not: two
  // identical levels in a row can never be an RDN.
  ComparatorNetwork net(4);
  net.add_level({Gate(0, 1, GateOp::CompareAsc), Gate(2, 3, GateOp::CompareAsc)});
  net.add_level({Gate(0, 1, GateOp::CompareAsc), Gate(2, 3, GateOp::CompareAsc)});
  const auto result = refute(net);
  EXPECT_EQ(result.status, RefutationStatus::NotInScope);
}

TEST(Refuter, PeriodicBalancedBlocksAreInScope) {
  // The balanced block is an RDN (see test_classic); two blocks refute.
  const wire_t n = 16;
  ComparatorNetwork net(n);
  net.append(balanced_block(n));
  net.append(balanced_block(n));
  const auto result = refute(net);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  EXPECT_TRUE(verify_certificate(net, *result.certificate).accepted());
}

TEST(Refuter, FullPeriodicBalancedSorterYieldsNoClaim) {
  const auto result = refute(periodic_balanced_sorter(16));
  EXPECT_EQ(result.status, RefutationStatus::TooFewSurvivors);
}

TEST(Refuter, IteratedRdnOverloadMatchesRegisterPath) {
  Prng rng(3);
  const auto reg = random_shuffle_network(64, 12, rng, {10, 5});
  const auto via_register = refute(reg);
  const auto via_rdn = refute(shuffle_to_iterated_rdn(reg));
  ASSERT_EQ(via_register.status, RefutationStatus::Refuted);
  ASSERT_EQ(via_rdn.status, RefutationStatus::Refuted);
  EXPECT_EQ(via_register.adversary.survivors, via_rdn.adversary.survivors);
}

// The outputs a refutation carries come from the refuter's compiled
// replay; in every model they are what the model's own evaluator gives
// for pi and pi' (output order: wire, register or final slot).
template <typename Net>
void expect_outputs_match_evaluator(const Net& net) {
  const RefutationResult result = refute(net);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  const Witness& w = result.certificate->witness;
  const auto evaluate = [&net](const Permutation& input) {
    return net.evaluate(
        std::vector<wire_t>(input.image().begin(), input.image().end()));
  };
  EXPECT_EQ(result.output_pi, evaluate(w.pi));
  EXPECT_EQ(result.output_pi_prime, evaluate(w.pi_prime));
}

TEST(Refuter, ReplayOutputsEqualTheModelsOwnEvaluator) {
  Prng rng(11);
  // Exchanges make the compiled output order a non-identity permutation.
  ComparatorNetwork circuit(16);
  circuit.append(random_rdn(4, rng, 10, 20).net);
  circuit.append(random_rdn(4, rng, 10, 20).net);
  expect_outputs_match_evaluator(circuit);
  expect_outputs_match_evaluator(
      random_shuffle_network(32, 8, rng, {10, 10}));
  expect_outputs_match_evaluator(make_iterated_rdn(
      16, 2, [&](std::size_t) { return random_rdn(4, rng, 10, 20); },
      [&](std::size_t) { return random_permutation(16, rng); }));
}

}  // namespace
}  // namespace shufflebound
