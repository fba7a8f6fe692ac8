// Lemma 4.1: the recursive set-matching construction. The parameterized
// suite checks all four guaranteed properties plus refinement validity on
// butterfly, random, and shuffle-derived reverse delta networks.
#include "adversary/lemma41.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "adversary/refuter.hpp"
#include "count_allocations.hpp"
#include "networks/shuffle.hpp"
#include "pattern/collision.hpp"
#include "perm/permutation.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

InputPattern all_m0(wire_t n) { return InputPattern(n, sym_M(0)); }

void check_property_1_sets_match_pattern(const Lemma41Result& r) {
  for (std::size_t i = 0; i < r.sets.size(); ++i) {
    EXPECT_EQ(r.refined.set_of(sym_M(static_cast<std::uint32_t>(i))), r.sets[i])
        << "set " << i;
  }
}

void check_property_3_and_4(const Lemma41Result& r, const InputPattern& p,
                            std::uint32_t l, std::uint32_t k) {
  const auto a_set = p.set_of(sym_M(0));
  const std::set<wire_t> a(a_set.begin(), a_set.end());
  std::size_t b_size = 0;
  for (const auto& set : r.sets) {
    for (const wire_t w : set) {
      EXPECT_TRUE(a.count(w)) << "set member outside A";
      ++b_size;
    }
  }
  EXPECT_EQ(b_size, r.stats.retained);
  const double bound = static_cast<double>(a.size()) -
                       static_cast<double>(l) * static_cast<double>(a.size()) /
                           (static_cast<double>(k) * k);
  EXPECT_GE(static_cast<double>(b_size), bound);
}

void check_sets_disjoint(const Lemma41Result& r) {
  std::set<wire_t> seen;
  for (const auto& set : r.sets) {
    for (const wire_t w : set) {
      EXPECT_TRUE(seen.insert(w).second) << "wire " << w << " in two sets";
    }
  }
}

void check_refinement(const InputPattern& p, const Lemma41Result& r) {
  EXPECT_TRUE(refines(p, r.refined));
  EXPECT_TRUE(u_refines(p, r.refined, p.set_of(sym_M(0))));
}

struct Lemma41Case {
  std::uint32_t depth;
  std::uint32_t k;
  std::uint64_t seed;
};

class Lemma41Random : public ::testing::TestWithParam<Lemma41Case> {};

TEST_P(Lemma41Random, AllLemmaPropertiesOnRandomRdn) {
  const auto [depth, k, seed] = GetParam();
  Prng rng(seed);
  const RdnChunk chunk = random_rdn(depth, rng, /*drop=*/15, /*exchange=*/10);
  const wire_t n = chunk.net.width();
  const InputPattern p = all_m0(n);
  const Lemma41Result r = lemma41(chunk, p, k);

  EXPECT_EQ(r.sets.size(), lemma41_set_budget(k, depth));
  check_property_1_sets_match_pattern(r);
  check_property_3_and_4(r, p, depth, k);
  check_sets_disjoint(r);
  check_refinement(p, r);
}

TEST_P(Lemma41Random, Property2NoncollidingBySampling) {
  const auto [depth, k, seed] = GetParam();
  Prng rng(seed ^ 0xABCD);
  const RdnChunk chunk = random_rdn(depth, rng, 10, 10);
  const Lemma41Result r = lemma41(chunk, all_m0(chunk.net.width()), k);
  Prng sampler(seed + 1);
  for (const auto& set : r.sets) {
    if (set.size() < 2) continue;
    EXPECT_TRUE(noncolliding_under_all_linearizations_sample(
        chunk.net, r.refined, set, sampler, 30));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma41Random,
    ::testing::Values(Lemma41Case{1, 1, 1}, Lemma41Case{2, 1, 2},
                      Lemma41Case{2, 2, 3}, Lemma41Case{3, 2, 4},
                      Lemma41Case{3, 3, 5}, Lemma41Case{4, 2, 6},
                      Lemma41Case{4, 4, 7}, Lemma41Case{5, 3, 8},
                      Lemma41Case{6, 3, 9}, Lemma41Case{6, 6, 10}));

TEST(Lemma41, ExactNoncollisionByOracleOnSmallButterfly) {
  // Exhaustive Definition 3.7 check of property (2) via the oracle.
  const RdnChunk chunk = butterfly_rdn(3);
  const InputPattern p = all_m0(8);
  const Lemma41Result r = lemma41(chunk, p, /*k=*/2);
  const CollisionOracle oracle(chunk.net, r.refined);
  for (const auto& set : r.sets) {
    if (set.size() < 2) continue;
    EXPECT_TRUE(oracle.noncolliding(set));
  }
}

TEST(Lemma41, ExactNoncollisionByOracleOnRandomRdns) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Prng rng(400 + seed);
    const RdnChunk chunk = random_rdn(3, rng, 20, 10);
    const InputPattern p = all_m0(8);
    const Lemma41Result r = lemma41(chunk, p, 2);
    if (refinement_input_count(r.refined) > 500'000) continue;
    const CollisionOracle oracle(chunk.net, r.refined);
    for (const auto& set : r.sets) {
      if (set.size() < 2) continue;
      EXPECT_TRUE(oracle.noncolliding(set)) << "seed " << seed;
    }
  }
}

TEST(Lemma41, ZeroLevelChunkKeepsEverything) {
  // Base case: a 0-level reverse delta network is a wire.
  RdnChunk chunk{ComparatorNetwork(1), RdnTree::contiguous(0)};
  const Lemma41Result r = lemma41(chunk, all_m0(1), 3);
  EXPECT_EQ(r.stats.retained, 1u);
  EXPECT_EQ(r.sets[0], (std::vector<wire_t>{1 - 1}));
}

TEST(Lemma41, EmptyLevelsLoseNothing) {
  const RdnChunk chunk = butterfly_rdn(
      4, [](std::uint32_t, wire_t, wire_t) { return GateOp::Passthrough; });
  const Lemma41Result r = lemma41(chunk, all_m0(16), 2);
  EXPECT_EQ(r.stats.retained, 16u);
  EXPECT_EQ(r.stats.largest_set, 16u);
}

TEST(Lemma41, ExchangeOnlyChunkLosesNothing) {
  // "1" elements are not comparisons (Definition 3.6): a chunk made purely
  // of exchanges costs the adversary nothing.
  const RdnChunk chunk = butterfly_rdn(
      3, [](std::uint32_t, wire_t, wire_t) { return GateOp::Exchange; });
  const Lemma41Result r = lemma41(chunk, all_m0(8), 2);
  EXPECT_EQ(r.stats.retained, 8u);
  EXPECT_EQ(r.stats.largest_set, 8u);
}

TEST(Lemma41, FullButterflyKeepsHalfInOneSetWithKOne) {
  // k = 1: only one offset (i0 = 0) is available, so every cross collision
  // costs a wire: the full butterfly has n/2 collisions at level 1, n/4 at
  // level 2, ... - survivors still form sets.
  const RdnChunk chunk = butterfly_rdn(3);
  const Lemma41Result r = lemma41(chunk, all_m0(8), 1);
  EXPECT_GE(r.stats.retained, 1u);
  EXPECT_LE(r.stats.retained, 8u);
  check_property_1_sets_match_pattern(r);
}

TEST(Lemma41, PropertyFourBoundScalesWithK) {
  // k = 4 on a 5-level chunk loses at most 5*32/16 = 10 wires; k = 1 only
  // guarantees the (vacuous) 5*32/1 bound. Check the strong bound holds.
  Prng rng(500);
  const RdnChunk chunk = random_rdn(5, rng);
  const std::size_t big_k = lemma41(chunk, all_m0(32), 4).stats.retained;
  EXPECT_GE(big_k, 32u - 10u);
}

TEST(Lemma41, HandlesPartialM0Pattern) {
  // Lemma also applies when A is a strict subset flanked by S_0 / L_0.
  const RdnChunk chunk = butterfly_rdn(3);
  InputPattern p(8, sym_M(0));
  p.set(0, sym_S(0));
  p.set(1, sym_S(0));
  p.set(7, sym_L(0));
  const Lemma41Result r = lemma41(chunk, p, 2);
  check_property_1_sets_match_pattern(r);
  check_property_3_and_4(r, p, 3, 2);
  check_refinement(p, r);
  // S/L wires are untouched.
  EXPECT_EQ(r.refined[0], sym_S(0));
  EXPECT_EQ(r.refined[7], sym_L(0));
}

TEST(Lemma41, RejectsBadInputs) {
  const RdnChunk chunk = butterfly_rdn(2);
  EXPECT_THROW(lemma41(chunk, all_m0(4), 0), std::invalid_argument);
  EXPECT_THROW(lemma41(chunk, all_m0(8), 1), std::invalid_argument);
  InputPattern bad(4, sym_M(1));
  EXPECT_THROW(lemma41(chunk, bad, 1), std::invalid_argument);
}

TEST(Lemma41, ShuffleChunkFromRegisterNetwork) {
  Prng rng(600);
  const RegisterNetwork reg = random_shuffle_network(16, 4, rng, {10, 10});
  const auto flat = register_to_circuit(reg);
  RdnChunk chunk{flat.circuit, RdnTree::shuffle_chunk(4)};
  ASSERT_EQ(chunk.tree.validate(chunk.net), std::nullopt);
  const InputPattern p = all_m0(16);
  const Lemma41Result r = lemma41(chunk, p, 4);
  check_property_1_sets_match_pattern(r);
  check_property_3_and_4(r, p, 4, 4);
  check_sets_disjoint(r);
  check_refinement(p, r);
}

TEST(Lemma41, FinalPositionsTrackSetMembers) {
  Prng rng(700);
  const RdnChunk chunk = random_rdn(4, rng, 10, 5);
  const Lemma41Result r = lemma41(chunk, all_m0(16), 2);
  // Every set member has a position; positions are distinct; the output
  // pattern carries the member's symbol at that position.
  std::set<wire_t> positions;
  for (std::size_t i = 0; i < r.sets.size(); ++i) {
    for (const wire_t w : r.sets[i]) {
      const wire_t pos = r.final_position[w];
      ASSERT_LT(pos, 16u);
      EXPECT_TRUE(positions.insert(pos).second);
      EXPECT_EQ(r.output[pos], sym_M(static_cast<std::uint32_t>(i)));
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity pin: FNV-1a digests of everything the driver hands out (the
// refined and output patterns, the sets, final_position, the stats and
// loss_per_level, the wires sacrificed per adaptive level) and of whole
// refute() certificates. The expected values were recorded from the
// map-based driver; any rewrite of the driver must reproduce them exactly.
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add(const std::vector<wire_t>& v) {
    add(v.size());
    for (const wire_t w : v) add(w);
  }
  void add(const InputPattern& p) {
    add(p.size());
    for (const PatternSymbol& s : p.symbols()) {
      add(static_cast<std::uint64_t>(s.kind));
      add(s.i);
      add(s.j);
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
  void add(const Lemma41Result& r) {
    add(r.refined);
    add(r.sets.size());
    for (const auto& set : r.sets) add(set);
    add(r.output);
    add(r.final_position);
    add(r.stats.initial_m0);
    add(r.stats.retained);
    add(r.stats.set_count);
    add(r.stats.nonempty_sets);
    add(r.stats.largest_set);
    add(r.stats.loss_per_level.size());
    for (const std::size_t loss : r.stats.loss_per_level) add(loss);
  }
};

/// Mostly M_0 with some S_0 / L_0, as later adversary stages see.
InputPattern mixed_entry_pattern(wire_t n, Prng& rng) {
  InputPattern p(n, sym_M(0));
  for (wire_t w = 0; w < n; ++w) {
    const std::uint64_t roll = rng.below(10);
    if (roll == 0) p.set(w, sym_S(0));
    if (roll == 1) p.set(w, sym_L(0));
  }
  return p;
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(Lemma41Pin, RandomRdnResultsAreBitIdentical) {
  // Depths 2..12, k in {1, 2, lg n}, both an all-M_0 and a mixed entry.
  const char* expected[] = {
      "0x20a943af67be35c3", "0x7b897caf389bf690", "0x4ee960e6632af307",
      "0x2cf376a04fcd193c", "0xa4bfa229af730099", "0x10dc4f80db50259b",
      "0x96a1f53742696e2e", "0xfa078ac60092a2be", "0x3ae27c9f11ffcbe6",
      "0x4ff50bb7898a7ac0", "0x3cd3ab3a48675180",
  };
  for (std::uint32_t depth = 2; depth <= 12; ++depth) {
    Digest d;
    for (const std::uint32_t k : {1u, 2u, depth}) {
      Prng rng(1000 * depth + k);
      const RdnChunk chunk = random_rdn(depth, rng, /*drop=*/15,
                                        /*exchange=*/10);
      const wire_t n = chunk.net.width();
      d.add(lemma41(chunk, all_m0(n), k));
      d.add(lemma41(chunk, mixed_entry_pattern(n, rng), k));
    }
    EXPECT_EQ(hex(d.h), expected[depth - 2]) << "depth " << depth;
  }
}

TEST(Lemma41Pin, ButterflyAndShuffleChunkResultsAreBitIdentical) {
  Digest butterfly;
  for (std::uint32_t depth = 2; depth <= 10; depth += 2) {
    const RdnChunk chunk = butterfly_rdn(depth);
    for (const std::uint32_t k : {1u, 2u, depth})
      butterfly.add(lemma41(chunk, all_m0(chunk.net.width()), k));
  }
  EXPECT_EQ(hex(butterfly.h), "0xd64e01e515f2d18b");

  Digest shuffle;
  for (const std::uint32_t depth : {4u, 8u, 10u}) {
    const wire_t n = wire_t{1} << depth;
    Prng rng(77 + depth);
    const RegisterNetwork reg = random_shuffle_network(n, depth, rng, {10, 10});
    const RdnChunk chunk{register_to_circuit(reg).circuit,
                         RdnTree::shuffle_chunk(depth)};
    for (const std::uint32_t k : {1u, 2u, depth}) {
      shuffle.add(lemma41(chunk, all_m0(n), k));
      shuffle.add(lemma41(chunk, mixed_entry_pattern(n, rng), k));
    }
  }
  EXPECT_EQ(hex(shuffle.h), "0x47019885e22fbbd2");
}

TEST(Lemma41Pin, AdaptiveFeedIsBitIdentical) {
  // Shaped like E9: a contiguous tree, each level chosen after reading the
  // symbols on the lines (pair equal symbols first), a random orientation
  // and an occasional missing element.
  const std::uint32_t depth = 8;
  const wire_t n = wire_t{1} << depth;
  const std::uint32_t k = depth;
  const RdnTree tree = RdnTree::contiguous(depth);
  Lemma41Driver driver(tree, all_m0(n), k);
  Prng rng(909);
  Digest d;
  for (std::uint32_t m = 1; m <= depth; ++m) {
    const InputPattern state = driver.current_state();
    Level level;
    for (const int id : tree.nodes_at_level(m)) {
      const auto& node = tree.node(id);
      const auto& left = tree.node(node.left).wires;
      auto right = tree.node(node.right).wires;
      shuffle_in_place(right, rng);
      std::vector<bool> used(right.size(), false);
      for (std::size_t i = 0; i < left.size(); ++i) {
        std::size_t pick = right.size();
        for (std::size_t j = 0; j < right.size() && pick == right.size(); ++j)
          if (!used[j] && state[left[i]] == state[right[j]]) pick = j;
        for (std::size_t j = 0; j < right.size() && pick == right.size(); ++j)
          if (!used[j]) pick = j;
        used[pick] = true;
        if (rng.chance(1, 10)) continue;
        level.gates.emplace_back(left[i], right[pick],
                                 rng.chance(1, 2) ? GateOp::CompareAsc
                                                  : GateOp::CompareDesc);
      }
    }
    const auto sacrificed = driver.feed_level(level);
    d.add(std::vector<wire_t>(sacrificed.begin(), sacrificed.end()));
    d.add(driver.current_pattern());
  }
  d.add(std::move(driver).finish());
  EXPECT_EQ(hex(d.h), "0x2943078af3bc8955");
}

TEST(Lemma41Pin, RefuteCertificatesAreBitIdentical) {
  Digest registers;
  for (const wire_t n : {16u, 64u, 256u, 1024u}) {
    const std::uint32_t lg = log2_exact(n);
    Prng rng(n + 7);
    const RegisterNetwork net = random_shuffle_network(n, 2 * lg, rng, {10, 10});
    const RefutationResult r = refute(net);
    registers.add(static_cast<std::uint64_t>(r.status));
    registers.add(r.adversary.survivors);
    registers.add(r.adversary.input_pattern);
    registers.add(r.detail);
    if (r.certificate) registers.add(certificate_text(*r.certificate));
  }
  EXPECT_EQ(hex(registers.h), "0x673f12b29750be12");

  Digest iterated;
  for (const std::uint32_t depth : {3u, 6u, 9u}) {
    const wire_t n = wire_t{1} << depth;
    Prng rng(31 * depth);
    const IteratedRdn net = make_iterated_rdn(
        n, 2, [&](std::size_t) { return random_rdn(depth, rng, 10, 10); },
        [&](std::size_t) { return random_permutation(n, rng); });
    for (const std::uint32_t k : {0u, 2u}) {
      const RefutationResult r = refute(net, k);
      iterated.add(static_cast<std::uint64_t>(r.status));
      iterated.add(r.adversary.survivors);
      iterated.add(r.adversary.input_pattern);
      if (r.certificate) iterated.add(certificate_text(*r.certificate));
    }
  }
  EXPECT_EQ(hex(iterated.h), "0xe2d8b3374e1c88c8");
}

TEST(Lemma41Driver, LevelStepsAllocateNothing) {
  // Every buffer is sized in the constructor: feeding a level, collisions,
  // demotions and renames included, touches the heap not once. Checked on
  // a dense random chunk and on a shuffle chunk, with k = 2 (few offsets,
  // so wires are sacrificed) and k = lg n.
  Prng rng(4242);
  const RdnChunk random_chunk = random_rdn(10, rng, 5, 5);
  const RegisterNetwork reg = random_shuffle_network(1024, 10, rng, {10, 5});
  const RdnChunk shuffle_chunk{register_to_circuit(reg).circuit,
                               RdnTree::shuffle_chunk(10)};
  for (const RdnChunk* chunk : {&random_chunk, &shuffle_chunk}) {
    for (const std::uint32_t k : {2u, 10u}) {
      Lemma41Driver driver(chunk->tree, all_m0(1024), k);
      std::size_t sacrificed = 0;
      const std::size_t before = testenv::g_allocations;
      for (const Level& level : chunk->net.levels())
        sacrificed += driver.feed_level(level).size();
      EXPECT_EQ(testenv::g_allocations - before, 0u) << "k " << k;
      const Lemma41Result r = std::move(driver).finish();
      if (k == 2) {
        EXPECT_GT(sacrificed, 0u);  // four offsets: some lose
      }
      EXPECT_EQ(r.stats.retained + sacrificed, 1024u);
    }
  }
}

TEST(Lemma41Driver, AdaptiveLevelsAreAccepted) {
  // The adaptive setting of Section 5: each level chosen after seeing the
  // adversary's state so far. Here the "algorithm" greedily compares the
  // pairs it is allowed to - the driver must process each level, and its
  // sets must be noncolliding in the network the fed levels assemble.
  const RdnTree tree = RdnTree::contiguous(3);
  Lemma41Driver driver(tree, all_m0(8), 2);
  ComparatorNetwork built(8);
  for (std::uint32_t m = 1; m <= 3; ++m) {
    Level level;
    for (const int id : tree.nodes_at_level(m)) {
      const auto& node = tree.node(id);
      const auto& left = tree.node(node.left).wires;
      const auto& right = tree.node(node.right).wires;
      level.gates.emplace_back(left[0], right[0], GateOp::CompareAsc);
    }
    driver.feed_level(level);
    built.add_level(level);
    EXPECT_EQ(driver.levels_fed(), m);
  }
  const Lemma41Result r = std::move(driver).finish();
  EXPECT_GE(r.stats.retained, 5u);  // at most one loss per level here
  const CollisionOracle oracle(built, r.refined);
  for (const auto& set : r.sets) {
    if (set.size() >= 2) {
      EXPECT_TRUE(oracle.noncolliding(set));
    }
  }
}

TEST(Lemma41Driver, RejectsGateInsideOneChild) {
  const RdnTree tree = RdnTree::contiguous(2);
  Lemma41Driver driver(tree, all_m0(4), 1);
  Level bad;
  bad.gates.emplace_back(0, 2, GateOp::CompareAsc);  // level 1 pairs bit 0
  EXPECT_THROW(driver.feed_level(bad), std::invalid_argument);
}

TEST(Lemma41Driver, RejectsTooManyLevels) {
  const RdnTree tree = RdnTree::contiguous(1);
  Lemma41Driver driver(tree, all_m0(2), 1);
  driver.feed_level(Level{});
  EXPECT_THROW(driver.feed_level(Level{}), std::logic_error);
}

TEST(Lemma41Driver, FinishRequiresAllLevels) {
  const RdnTree tree = RdnTree::contiguous(2);
  Lemma41Driver driver(tree, all_m0(4), 1);
  driver.feed_level(Level{});
  EXPECT_THROW(std::move(driver).finish(), std::logic_error);
}

}  // namespace
}  // namespace shufflebound
