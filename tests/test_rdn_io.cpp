// Iterated-RDN serialization (trees + inter-chunk permutations).
#include "networks/rdn_io.hpp"

#include <gtest/gtest.h>

#include "adversary/refuter.hpp"
#include "networks/shuffle.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

IteratedRdn sample_network(wire_t n, std::size_t stages, std::uint64_t seed) {
  Prng rng(seed);
  const std::uint32_t d = log2_exact(n);
  return make_iterated_rdn(
      n, stages, [&](std::size_t) { return random_rdn(d, rng, 15, 10); },
      [&](std::size_t c) {
        return c == 0 ? Permutation::identity(n) : random_permutation(n, rng);
      });
}

TEST(LeafOrder, RoundTripsTrees) {
  Prng rng(1);
  for (const RdnTree& tree :
       {RdnTree::contiguous(4), RdnTree::shuffle_chunk(4),
        random_rdn(4, rng).tree}) {
    const RdnTree rebuilt = RdnTree::from_order(tree.leaf_order());
    ASSERT_EQ(rebuilt.depth(), tree.depth());
    for (std::uint32_t level = 0; level <= tree.depth(); ++level) {
      for (wire_t w = 0; w < tree.width(); ++w) {
        const auto& a = tree.node(tree.node_of(level, w)).wires;
        const auto& b = rebuilt.node(rebuilt.node_of(level, w)).wires;
        ASSERT_EQ(a, b);
      }
    }
  }
}

TEST(IteratedIo, RoundTripPreservesStructure) {
  const IteratedRdn net = sample_network(16, 3, 2);
  const IteratedRdn parsed = iterated_from_text(to_text(net));
  ASSERT_EQ(parsed.stage_count(), net.stage_count());
  ASSERT_EQ(parsed.width(), net.width());
  for (std::size_t c = 0; c < net.stage_count(); ++c) {
    EXPECT_EQ(parsed.stages()[c].pre, net.stages()[c].pre);
    EXPECT_EQ(parsed.stages()[c].chunk.net, net.stages()[c].chunk.net);
    EXPECT_EQ(parsed.stages()[c].chunk.tree.leaf_order(),
              net.stages()[c].chunk.tree.leaf_order());
  }
}

TEST(IteratedIo, RoundTripPreservesBehaviour) {
  const IteratedRdn net = sample_network(32, 2, 3);
  const IteratedRdn parsed = iterated_from_text(to_text(net));
  Prng rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    const auto input = random_permutation(32, rng);
    std::vector<wire_t> a(input.image().begin(), input.image().end());
    net.evaluate_in_place(a);
    std::vector<wire_t> b(input.image().begin(), input.image().end());
    parsed.evaluate_in_place(b);
    EXPECT_EQ(a, b);
  }
}

TEST(IteratedIo, ParsedNetworkIsRefutable) {
  const IteratedRdn net = sample_network(16, 2, 5);
  const IteratedRdn parsed = iterated_from_text(to_text(net));
  const auto result = refute(parsed);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  // The certificate transfers to the original network (they are equal).
  EXPECT_TRUE(
      check_witness(net, result.certificate->witness).refutes_sorting());
}

TEST(IteratedIo, IdentityShorthand) {
  const IteratedRdn net = sample_network(8, 1, 6);
  const std::string text = to_text(net);
  EXPECT_NE(text.find("stage perm identity"), std::string::npos);
}

TEST(IteratedIo, ParseErrors) {
  EXPECT_THROW(iterated_from_text(""), std::invalid_argument);
  EXPECT_THROW(iterated_from_text("iterated 0\nend\n"), std::invalid_argument);
  EXPECT_THROW(iterated_from_text("iterated 4\nstage perm identity\n"
                                  "tree 0 1 2\nendstage\nend\n"),
               std::invalid_argument);  // short leaf order
  EXPECT_THROW(iterated_from_text("iterated 4\nstage perm identity\n"
                                  "tree 0 1 2 9\nlevel 0+1 2+3\n"
                                  "level 0+2 1+3\nendstage\nend\n"),
               std::invalid_argument);  // leaf wire past the width
  EXPECT_THROW(iterated_from_text("iterated 4\nstage perm identity\n"
                                  "tree 0 1 2 3\nlevel 0+2\n"),
               std::invalid_argument);  // missing endstage/end
  // Gates violating the declared tree are rejected at add_stage.
  EXPECT_THROW(iterated_from_text("iterated 4\nstage perm identity\n"
                                  "tree 0 1 2 3\nlevel 0+1\nlevel 0+1\n"
                                  "endstage\nend\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace shufflebound
