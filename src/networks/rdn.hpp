// Reverse delta networks (Definition 3.4) and iterated reverse delta
// networks - the class of networks the lower bound is proved for.
//
// An l-level reverse delta network on 2^l wires is either a bare wire
// (l = 0) or two parallel (l-1)-level reverse delta networks followed by a
// final level of comparators, each taking one input from each subnetwork.
// Levels may have fewer than the maximum number of elements (the 0/1
// circuit elements of the register model).
//
// RdnTree captures the recursive decomposition as a binary tree whose node
// at level t owns 2^t wires; the gates of circuit level t (1-based) must
// connect the two children of exactly one level-t node. The adversary of
// Section 4 walks this tree.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "perm/permutation.hpp"
#include "util/prng.hpp"

namespace shufflebound {

class RdnTree {
 public:
  struct Node {
    std::uint32_t level = 0;          // number of levels in this subnetwork
    std::vector<wire_t> wires;        // wires owned by this subnetwork
    int left = -1;                    // child node ids; -1 at leaves
    int right = -1;
  };

  RdnTree() = default;

  const std::vector<Node>& nodes() const noexcept;
  const Node& node(int id) const { return nodes().at(static_cast<std::size_t>(id)); }
  int root() const noexcept { return root_; }
  std::uint32_t depth() const { return nodes().empty() ? 0 : node(root_).level; }
  wire_t width() const {
    return nodes().empty() ? 0 : static_cast<wire_t>(node(root_).wires.size());
  }

  /// Node ids at a given level, i.e. subnetworks with exactly `level`
  /// levels. Level = depth() returns {root()}.
  std::vector<int> nodes_at_level(std::uint32_t level) const;

  /// node_of(level, w): id of the level-`level` node containing wire w.
  int node_of(std::uint32_t level, wire_t w) const;

  /// The contiguous-split tree used by the butterfly-style builders:
  /// the level-t node of wire w is determined by w's bits >= t (high bits
  /// fixed, children split by bit t-1).
  static RdnTree contiguous(std::uint32_t depth);

  /// The tree of a chunk of consecutive shuffle steps on 2^d registers:
  /// the level-t node of entry register r is determined by r's low (d - t)
  /// bits (children split by bit d - t). Valid for full (d-step) and
  /// truncated chunks alike (truncated chunks leave the top levels empty).
  static RdnTree shuffle_chunk(std::uint32_t depth);

  /// Builds a tree from an explicit recursive wire order: the root owns
  /// `order`, and every node splits its wire list into first/second half.
  static RdnTree from_order(std::vector<wire_t> order);

  /// The left-to-right leaf order; from_order(leaf_order()) rebuilds an
  /// identical tree (the serialization form of a tree). Every tree is
  /// built from one, so the level-t nodes, in nodes_at_level(t) order, own
  /// its consecutive 2^t-blocks: wire w's level-t node is the
  /// (r >> t)-th, where r is w's position in the order, and w lies in
  /// that node's left child iff bit t-1 of r is 0. The reference lives
  /// as long as this tree (or a copy of it).
  const std::vector<wire_t>& leaf_order() const noexcept;

  /// Checks that `net` is an RDN consistent with this tree: every gate of
  /// circuit level t (1-based; t in [1, net.depth()]) connects a wire from
  /// the left child to a wire from the right child of one level-t node,
  /// and net.depth() == depth(). Returns an explanatory string on failure.
  std::optional<std::string> validate(const ComparatorNetwork& net) const;

 private:
  static int build_split(std::vector<Node>& nodes,
                         std::span<const wire_t> wires, std::uint32_t level);

  struct Shape {
    std::vector<Node> nodes;
    std::vector<wire_t> leaf_order;
  };
  // Never changed once built, so copies of a tree share it: a tree is
  // copied into every stage of an iterated network.
  std::shared_ptr<const Shape> shape_;
  int root_ = -1;
};

/// Policy hook deciding the circuit element placed between two matched
/// wires at a cross level; returning Passthrough places no gate. Arguments:
/// (level t, wire from left child, wire from right child).
using CrossOpPolicy = std::function<GateOp(std::uint32_t, wire_t, wire_t)>;

/// All comparators ascending, full levels - the densest RDN.
GateOp cross_op_all_ascending(std::uint32_t level, wire_t a, wire_t b);

/// A reverse delta network together with its decomposition tree.
struct RdnChunk {
  ComparatorNetwork net;
  RdnTree tree;
};

/// Builds a butterfly-structured reverse delta network on 2^depth wires:
/// level t (1-based) pairs wires differing in bit t-1, with elements chosen
/// by `policy` (default: all ascending comparators). The butterfly is the
/// unique network that is both a delta and a reverse delta network.
RdnChunk butterfly_rdn(std::uint32_t depth,
                       const CrossOpPolicy& policy = cross_op_all_ascending);

/// Builds a random reverse delta network: wires are ordered by a random
/// permutation, nodes split contiguously in that order, and each cross
/// level uses a random matching between the two child subnetworks. Element
/// types: comparator orientation uniform; each potential gate is dropped
/// (Passthrough) with probability drop_percent/100 and is an Exchange with
/// probability exchange_percent/100.
RdnChunk random_rdn(std::uint32_t depth, Prng& rng, unsigned drop_percent = 0,
                    unsigned exchange_percent = 0);

/// A (k, l)-iterated reverse delta network: a sequence of reverse delta
/// chunks with an arbitrary fixed permutation in front of each chunk
/// (serial composition allows any one-to-one wire mapping between
/// consecutive chunks).
class IteratedRdn {
 public:
  struct Stage {
    Permutation pre;  // slot j of the previous output feeds slot pre(j)
    RdnChunk chunk;
  };

  IteratedRdn() = default;
  /// Throws std::invalid_argument unless `width` is a power of two.
  explicit IteratedRdn(wire_t width);

  wire_t width() const noexcept { return width_; }
  const std::vector<Stage>& stages() const noexcept { return stages_; }
  std::size_t stage_count() const noexcept { return stages_.size(); }

  /// Total number of levels, counting every chunk level (including empty
  /// padding levels of truncated chunks) but not the free permutations.
  std::size_t depth() const noexcept;

  /// Total depth counting only non-empty levels.
  std::size_t effective_depth() const noexcept;

  std::size_t comparator_count() const noexcept;

  void add_stage(Stage stage);

  /// Evaluates the whole network on `values` in place.
  template <typename T, typename Less = std::less<T>,
            typename Observer = NullObserver>
  void evaluate_in_place(std::vector<T>& values, Less less = {},
                         Observer&& observer = Observer{}) const {
    std::vector<T> scratch;
    for (const Stage& stage : stages_) {
      stage.pre.apply_in_place(values, scratch);
      stage.chunk.net.evaluate_in_place(std::span<T>(values), less, observer);
    }
  }

  template <typename T, typename Less = std::less<T>>
  std::vector<T> evaluate(std::vector<T> values, Less less = {}) const {
    evaluate_in_place(values, less);
    return values;
  }

  /// Flattens to a single circuit: permutations are realized by relabeling
  /// (serial composition), so the result has exactly depth() levels.
  /// In the returned FlattenedNetwork, register_to_wire[s] is the circuit
  /// wire corresponding to final output slot s of this iterated network.
  FlattenedNetwork flatten() const;

 private:
  wire_t width_ = 0;
  std::vector<Stage> stages_;
};

/// Builds a (stage_count, depth)-iterated RDN whose chunks come from
/// `make_chunk` and whose inter-chunk permutations come from `make_perm`
/// (identity for stage 0 is NOT implied; make_perm is called for every
/// stage including the first).
IteratedRdn make_iterated_rdn(
    wire_t width, std::size_t stage_count,
    const std::function<RdnChunk(std::size_t)>& make_chunk,
    const std::function<Permutation(std::size_t)>& make_perm);

/// Whether shuffle_to_iterated_rdn runs net.is_shuffle_based() itself.
/// AlreadyChecked is for a caller that has just run it (refute() does, to
/// report an out-of-scope network without an exception).
enum class ShuffleCheck : std::uint8_t { Check, AlreadyChecked };

/// Converts a shuffle-based register network into its iterated-RDN form:
/// consecutive groups of `chunk_len` steps (default: lg n, the paper's
/// case) are flattened into reverse delta chunks; a truncated final group
/// is padded with empty levels. Throws if chunk_len > lg n, or if `check`
/// is Check and the network is not shuffle-based.
IteratedRdn shuffle_to_iterated_rdn(const RegisterNetwork& net,
                                    std::size_t chunk_len = 0,
                                    ShuffleCheck check = ShuffleCheck::Check);

/// Attempts to recover an RdnTree for an arbitrary leveled network of
/// depth d on 2^d wires by recursive bipartition: earlier-level
/// connectivity components must split into two halves with the final level
/// crossing them. Returns nullopt if no decomposition is found (the
/// network is then not an RDN, or the greedy component packing failed).
std::optional<RdnTree> recognize_rdn(const ComparatorNetwork& net);

}  // namespace shufflebound
