// Corollary 4.1.1: witness extraction and machine-checked refutation
// across network families.
#include "adversary/witness.hpp"

#include <gtest/gtest.h>

#include "adversary/naive.hpp"
#include "adversary/refuter.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "pattern/collision.hpp"
#include "sim/compiled_net.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

TEST(Witness, ExtractionBuildsAdjacentPair) {
  AdversaryResult r;
  r.input_pattern = InputPattern({sym_M(0), sym_S(0), sym_M(0), sym_L(0)});
  r.survivors = {0, 2};
  const auto w = extract_witness(r);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->pi[w->w0] + 1, w->pi[w->w1]);
  EXPECT_EQ(w->pi_prime[w->w0], w->pi[w->w1]);
  EXPECT_EQ(w->pi_prime[w->w1], w->pi[w->w0]);
  for (wire_t x = 0; x < 4; ++x) {
    if (x != w->w0 && x != w->w1) {
      EXPECT_EQ(w->pi[x], w->pi_prime[x]);
    }
  }
  EXPECT_TRUE(refines_to_input(r.input_pattern, w->pi));
  EXPECT_TRUE(refines_to_input(r.input_pattern, w->pi_prime));
}

TEST(Witness, EnumerationYieldsAllPairsAndEachValidates) {
  Prng rng(55);
  const RegisterNetwork reg = random_shuffle_network(32, 6, rng, {10, 5});
  const AdversaryResult r = run_adversary(shuffle_to_iterated_rdn(reg));
  ASSERT_GE(r.survivors.size(), 2u);
  const std::size_t s = r.survivors.size();
  const auto witnesses = enumerate_witnesses(r, /*limit=*/1000);
  EXPECT_EQ(witnesses.size(), s * (s - 1) / 2);
  for (const Witness& w : witnesses) {
    ASSERT_TRUE(check_witness(reg, w).refutes_sorting())
        << "pair (" << w.w0 << ", " << w.w1 << ")";
  }
}

TEST(Witness, EnumerationHonorsLimit) {
  AdversaryResult r;
  r.input_pattern = InputPattern(8, sym_M(0));
  r.survivors = {0, 1, 2, 3, 4};
  EXPECT_EQ(enumerate_witnesses(r, 3).size(), 3u);
  EXPECT_EQ(enumerate_witnesses(r, 100).size(), 10u);
}

TEST(Witness, NoWitnessWithFewerThanTwoSurvivors) {
  AdversaryResult r;
  r.input_pattern = InputPattern({sym_M(0), sym_S(0)});
  r.survivors = {0};
  EXPECT_FALSE(extract_witness(r).has_value());
}

TEST(Witness, SortingNetworkNeverRefuted) {
  // Against a true sorter, any "witness" must fail the check: a sorting
  // network compares every adjacent value pair.
  const auto net = bitonic_sorting_network(8);
  Witness fake;
  fake.w0 = 0;
  fake.w1 = 1;
  fake.m = 3;
  fake.pi = Permutation({3, 4, 0, 1, 2, 5, 6, 7});
  fake.pi_prime = Permutation({4, 3, 0, 1, 2, 5, 6, 7});
  const auto check = check_witness(net, fake);
  EXPECT_FALSE(check.never_compared);
  EXPECT_FALSE(check.refutes_sorting());
}

// gtest names each case by dumping the parameter's bytes, so the struct has
// no padding: the four bytes after n are an explicit zero, which keeps the
// case names the same from one build and run to the next.
struct FamilyCase {
  FamilyCase(wire_t n_, std::size_t depth_, std::uint64_t seed_)
      : n(n_), depth(depth_), seed(seed_) {}
  wire_t n;
  std::uint32_t zero = 0;
  std::size_t depth;  // shuffle steps
  std::uint64_t seed;
};
static_assert(sizeof(FamilyCase) ==
              sizeof(wire_t) + sizeof(std::uint32_t) + sizeof(std::size_t) +
                  sizeof(std::uint64_t));

class WitnessFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(WitnessFamilies, RandomShuffleNetworksAlwaysRefuted) {
  const FamilyCase& c = GetParam();
  Prng rng(c.seed);
  const RegisterNetwork reg =
      random_shuffle_network(c.n, c.depth, rng, {10, 10});
  const IteratedRdn rdn = shuffle_to_iterated_rdn(reg);
  const AdversaryResult r = run_adversary(rdn);
  ASSERT_GE(r.survivors.size(), 2u)
      << "adversary must survive a sub-bound-depth network";
  const auto w = extract_witness(r);
  ASSERT_TRUE(w.has_value());
  // Verify against all three executable forms of the same network.
  for (const WitnessCheck& check :
       {check_witness(reg, *w), check_witness(rdn, *w),
        check_witness(rdn.flatten().circuit, *w)}) {
    EXPECT_TRUE(check.never_compared);
    EXPECT_TRUE(check.same_permutation);
    EXPECT_TRUE(check.refutes_sorting());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WitnessFamilies,
    ::testing::Values(FamilyCase{8, 3, 11}, FamilyCase{8, 6, 12},
                      FamilyCase{16, 4, 13}, FamilyCase{16, 8, 14},
                      FamilyCase{32, 5, 15}, FamilyCase{32, 10, 16},
                      FamilyCase{64, 6, 17}, FamilyCase{64, 12, 18},
                      FamilyCase{128, 7, 19}, FamilyCase{256, 8, 20}));

TEST(Witness, RefutesIteratedButterflies) {
  const wire_t n = 32;
  IteratedRdn net(n);
  net.add_stage({Permutation::identity(n), butterfly_rdn(5)});
  net.add_stage({bit_reversal_permutation(n), butterfly_rdn(5)});
  const AdversaryResult r = run_adversary(net);
  const auto w = extract_witness(r);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(check_witness(net, *w).refutes_sorting());
}

TEST(Witness, RefutesRandomIteratedRdns) {
  Prng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const wire_t n = 16;
    const auto net = make_iterated_rdn(
        n, 2, [&](std::size_t) { return random_rdn(4, rng, 15, 10); },
        [&](std::size_t) { return random_permutation(n, rng); });
    const AdversaryResult r = run_adversary(net);
    ASSERT_GE(r.survivors.size(), 2u) << "trial " << trial;
    const auto w = extract_witness(r);
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE(check_witness(net, *w).refutes_sorting()) << "trial " << trial;
  }
}

TEST(Witness, OutputsActuallyDifferOnWitnessPair) {
  // The corollary's endgame: identical permutation applied to different
  // inputs means at least one output is unsorted under any fixed rank
  // assignment. Concretely, the two outputs differ in exactly the two
  // positions holding m and m+1.
  Prng rng(78);
  const RegisterNetwork reg = random_shuffle_network(16, 4, rng);
  const AdversaryResult r = run_adversary(shuffle_to_iterated_rdn(reg));
  const auto w = extract_witness(r);
  ASSERT_TRUE(w.has_value());
  const auto out1 = reg.evaluate(
      std::vector<wire_t>(w->pi.image().begin(), w->pi.image().end()));
  const auto out2 = reg.evaluate(std::vector<wire_t>(
      w->pi_prime.image().begin(), w->pi_prime.image().end()));
  int diffs = 0;
  for (wire_t i = 0; i < 16; ++i)
    if (out1[i] != out2[i]) ++diffs;
  EXPECT_EQ(diffs, 2);
}

TEST(Witness, ReplaySkipsWitnessOfAnotherWidth) {
  // The compiled kernel indexes its buffers by the network's slots, so a
  // witness narrower than the network is rejected without a run.
  Prng rng(1);
  const RegisterNetwork narrow = random_shuffle_network(8, 2, rng);
  const RefutationResult refuted = refute(narrow);
  ASSERT_TRUE(refuted.certificate.has_value());
  const Witness& w = refuted.certificate->witness;
  ASSERT_TRUE(check_witness(compile(narrow), w).refutes_sorting());
  const WitnessReplay replay =
      replay_witness(compile(random_shuffle_network(32, 8, rng)), w);
  EXPECT_FALSE(replay.check.refutes_sorting());
  EXPECT_TRUE(replay.output_pi.empty());
  EXPECT_TRUE(replay.output_pi_prime.empty());
}

TEST(NaiveAdversary, SurvivesOneLevelPerHalving) {
  // Section 2's naive technique on the full bitonic sorter: loses at most
  // half per level, so survives at least lg n levels... and because the
  // sorter compares everything, it must end with at most 1 survivor.
  const auto net = bitonic_sorting_network(16);
  const auto r = naive_adversary(net);
  EXPECT_EQ(r.set_size_by_level.front(), 16u);
  for (std::size_t l = 1; l < r.set_size_by_level.size(); ++l) {
    EXPECT_GE(r.set_size_by_level[l] * 2, r.set_size_by_level[l - 1])
        << "lost more than half at level " << l;
  }
  EXPECT_LE(r.survivors.size(), 1u);
  EXPECT_GE(r.levels_until_singleton, log2_exact(16));
}

TEST(NaiveAdversary, PatternWitnessesTheSurvivingSet) {
  Prng rng(79);
  const RegisterNetwork reg = random_shuffle_network(16, 3, rng, {30, 10});
  const auto flat = register_to_circuit(reg);
  const auto r = naive_adversary(flat.circuit);
  EXPECT_EQ(r.pattern.set_of(sym_M(0)), r.survivors);
  // Every level's bookkeeping is monotone non-increasing.
  for (std::size_t l = 1; l < r.set_size_by_level.size(); ++l)
    EXPECT_LE(r.set_size_by_level[l], r.set_size_by_level[l - 1]);
}

TEST(NaiveAdversary, SurvivorsAreExactlyNoncolliding) {
  Prng rng(80);
  const RegisterNetwork reg = random_shuffle_network(8, 2, rng, {20, 0});
  const auto flat = register_to_circuit(reg);
  const auto r = naive_adversary(flat.circuit);
  if (r.survivors.size() >= 2 &&
      refinement_input_count(r.pattern) <= 1'000'000) {
    const CollisionOracle oracle(flat.circuit, r.pattern);
    EXPECT_TRUE(oracle.noncolliding(r.survivors));
  }
}

TEST(NaiveAdversary, ExchangeOnlyNetworkKeepsEverything) {
  ComparatorNetwork net(4);
  net.add_level({Gate(0, 1, GateOp::Exchange), Gate(2, 3, GateOp::Exchange)});
  net.add_level({Gate(0, 2, GateOp::Exchange)});
  const auto r = naive_adversary(net);
  EXPECT_EQ(r.survivors.size(), 4u);
}

}  // namespace
}  // namespace shufflebound
