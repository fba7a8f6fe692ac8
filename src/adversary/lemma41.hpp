// Executable form of Lemma 4.1.
//
// Given an l-level reverse delta network Delta (an RdnChunk), an input
// pattern p over its wires containing only S_0, M_0, L_0, and a parameter
// k >= 1, the lemma constructs an A-refinement q of p (A = the [M_0]-set)
// and t(l) = k^3 + l k^2 disjoint sets M_0..M_{t(l)-1} such that
//   (1) M_i is the [M_i]-set of q,
//   (2) every M_i is noncolliding in Delta under q,
//   (3) B = union M_i is contained in A, and
//   (4) |B| >= |A| - l |A| / k^2.
//
// The implementation processes the chunk level by level (the iterative
// transcription of the induction): at cross level m each level-m tree
// node merges the set collections of its two children through the
// offset-i0 partial matching, where i0 minimizes the number of wires
// |L_{i0}| sacrificed to collisions; sacrificed wires are demoted to the
// X_{i,j} "graveyard" symbols just below their set symbol M_i, which, by
// construction of <_P, changes no comparison outcome anywhere in the
// network - the refinement-validity heart of the proof.
//
// Representation and cost. The tree enters only through its leaf order:
// the level-m nodes are the consecutive 2^m-blocks of that order, so the
// driver keeps every per-wire and per-line array indexed by leaf rank.
// Then a wire's level-m node is its rank >> m, its side is bit m-1 of the
// rank, and each node's wires and lines are one contiguous range. A
// node's set collection is not stored: its sets are its tracked wires
// grouped by their current index, so renaming the right child
// M_i -> M_{i+i0} is one sequential pass over the child's range, merging
// two children costs nothing, and finish() reads the root's sets off in
// wire order (hence sorted). Collisions are bucketed by node with a
// counting sort. Loss is counted only at the offsets collisions produce,
// in one buffer of min(k^2, n/2 + 1) entries cleared where it was
// touched; i0 is the first offset of least loss, and the scan from
// offset 0 stops at the first untouched one. One level therefore costs
// O(n / 2^m + gates + renamed wires), at most O(n), and every buffer is
// sized in the constructor, so feed_level allocates nothing.
//
// Because levels are consumed one at a time, the same routine serves the
// adaptive setting of Section 5: each level's gates may be produced
// lazily, as a function of everything the "algorithm" has seen so far
// (see Lemma41Driver below).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "networks/rdn.hpp"
#include "pattern/input_pattern.hpp"

namespace shufflebound {

struct Lemma41Stats {
  std::size_t initial_m0 = 0;   // |A|
  std::size_t retained = 0;     // |B|
  std::size_t set_count = 0;    // t(l)
  std::size_t nonempty_sets = 0;
  std::size_t largest_set = 0;
  std::vector<std::size_t> loss_per_level;  // total |L_{i0}| across nodes
};

struct Lemma41Result {
  /// q: the A-refinement of p, over the chunk's input wires.
  InputPattern refined;
  /// The [M_i]-sets of q, indexed by i (sorted wire lists, many empty).
  std::vector<std::vector<wire_t>> sets;
  /// Output pattern Delta(q): symbol on every output wire/position.
  InputPattern output;
  /// final_position[w] for every wire in some set: the wire (= line) it
  /// occupies after the chunk. Wires outside every set hold wire_t(-1).
  std::vector<wire_t> final_position;
  Lemma41Stats stats;
};

/// Runs Lemma 4.1 on a fixed chunk. Throws if p contains symbols other
/// than S_0 / M_0 / L_0, if k == 0, or if the chunk is malformed.
Lemma41Result lemma41(const RdnChunk& chunk, const InputPattern& p,
                      std::uint32_t k);

/// Level-stepped driver for the adaptive setting: the adversary commits to
/// nothing ahead of time; `feed_level` is called once per level
/// m = 1..depth and its gates may be chosen adaptively (they must still
/// respect the RDN tree - checked per level).
class Lemma41Driver {
 public:
  /// Reads the tree's shape (its leaf order) here and keeps no reference
  /// to it. Throws if k == 0, the pattern's width differs from the tree's
  /// or the pattern holds symbols other than S_0 / M_0 / L_0.
  Lemma41Driver(const RdnTree& tree, InputPattern p, std::uint32_t k);

  /// Hook invoked once per feed_level call before any work - the
  /// cooperative-deadline discipline of the certify path (throw from the
  /// hook to abort; the exception propagates to the caller).
  void set_progress(std::function<void()> progress) {
    progress_ = std::move(progress);
  }

  /// Feeds the next cross level; `level` gates must connect the two
  /// children of level-m nodes of the tree (m = number of levels fed so
  /// far + 1), on pairwise distinct wires, and none may be a passthrough.
  /// A level that breaks this throws std::invalid_argument before any
  /// state changes. Returns the wires sacrificed at this level, in node
  /// order then gate order; the view is valid until the next call.
  std::span<const wire_t> feed_level(const Level& level);

  std::uint32_t levels_fed() const noexcept { return level_; }
  std::uint32_t depth() const noexcept { return depth_; }

  /// Finalizes; valid once levels_fed() == depth().
  Lemma41Result finish() &&;

  /// The refined input pattern as of the levels fed so far. An adaptive
  /// opponent (Section 5) may inspect this between levels - the argument
  /// survives even that leak, and E9 measures exactly that.
  InputPattern current_pattern() const { return by_wire(input_); }

  /// The symbol currently sitting on each line (position), i.e. the
  /// pattern after the levels fed so far. The strongest adaptive opponent
  /// aims comparators using this.
  InputPattern current_state() const { return by_wire(state_); }

 private:
  /// A gate of the current level between the lines of leaf ranks a and b,
  /// its orientation relative to a.
  struct RankGate {
    std::uint32_t a;
    std::uint32_t b;
    GateOp op;
  };
  /// A comparator of the current level meeting two tracked values.
  struct Collision {
    std::uint32_t left_set;
    std::uint32_t right_set;
    std::uint32_t left_rank;  // leaf rank of the left child's wire
  };

  InputPattern by_wire(const std::vector<PatternSymbol>& by_rank) const;
  void demote(std::uint32_t r, std::uint32_t set_index, std::uint32_t xj);
  void rename(std::size_t first, std::size_t count, std::uint32_t i0);

  std::function<void()> progress_;
  std::uint32_t k_ = 1;
  std::uint32_t depth_ = 0;
  std::uint32_t level_ = 0;  // levels processed so far

  // The tree: leaf_order_[r] is the wire of leaf rank r, leaf_rank_ its
  // inverse. Every array below is indexed by leaf rank: of an input wire
  // (input_, set_index_, pos_) or of a line (state_, tracked_at_).
  std::vector<wire_t> leaf_order_;
  std::vector<std::uint32_t> leaf_rank_;

  std::vector<PatternSymbol> input_;       // the refined input pattern
  std::vector<std::uint32_t> set_index_;   // tracked wire's M_i index
  std::vector<std::uint32_t> pos_;         // tracked wire -> its line
  std::vector<PatternSymbol> state_;       // symbol currently on each line
  std::vector<std::uint32_t> tracked_at_;  // line -> tracked wire or npos
  std::uint32_t next_xj_ = 0;              // fresh j for X_{i,j} demotions

  // Per-level scratch, sized once in the constructor.
  std::vector<RankGate> gates_;             // the level, in leaf ranks
  std::vector<std::uint32_t> line_stamp_;   // feed_level call that used a line
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> bucket_end_;   // per node: end of its collisions
  std::vector<Collision> collisions_;       // this level's, grouped by node
  std::vector<std::uint32_t> loss_;         // per offset, zero between nodes
  std::vector<wire_t> sacrificed_;          // this level's demoted wires

  Lemma41Stats stats_;
  static constexpr std::uint32_t npos = static_cast<std::uint32_t>(-1);
};

/// t(l) = k^3 + l k^2 (the lemma's set budget).
constexpr std::size_t lemma41_set_budget(std::uint32_t k, std::uint32_t l) {
  return static_cast<std::size_t>(k) * k * k +
         static_cast<std::size_t>(l) * k * k;
}

}  // namespace shufflebound
