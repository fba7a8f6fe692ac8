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
// Because levels are consumed one at a time, the same routine serves the
// adaptive setting of Section 5: each level's gates may be produced
// lazily, as a function of everything the "algorithm" has seen so far
// (see Lemma41Driver below).
#pragma once

#include <cstdint>
#include <functional>
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
  /// occupies after the chunk. Lines outside any set hold n (unknown).
  std::vector<wire_t> final_position;
  Lemma41Stats stats;
};

/// Runs Lemma 4.1 on a fixed chunk. Throws if p contains symbols other
/// than S_0 / M_0 / L_0, if k == 0, or if the chunk is malformed.
Lemma41Result lemma41(const RdnChunk& chunk, const InputPattern& p,
                      std::uint32_t k);

/// Level-stepped driver for the adaptive setting: the adversary commits to
/// nothing ahead of time; `next_level(m)` is called once per level
/// m = 1..depth and may choose that level's gates adaptively (it must
/// still respect the RDN tree - validated per level). The full network
/// assembled from the returned levels is available afterwards.
class Lemma41Driver {
 public:
  Lemma41Driver(RdnTree tree, InputPattern p, std::uint32_t k);

  /// Hook invoked once per feed_level call before any work - the
  /// cooperative-deadline discipline of the certify path (throw from the
  /// hook to abort; the exception propagates to the caller).
  void set_progress(std::function<void()> progress) {
    progress_ = std::move(progress);
  }

  /// Feeds the next cross level; `level` gates must connect the two
  /// children of level-m nodes of the tree (m = number of levels fed so
  /// far + 1). Returns the wires sacrificed at this level.
  std::vector<wire_t> feed_level(const Level& level);

  std::uint32_t levels_fed() const noexcept { return level_; }
  std::uint32_t depth() const noexcept { return tree_.depth(); }

  /// Finalizes; valid once levels_fed() == depth().
  Lemma41Result finish() &&;

  /// The levels fed so far, as a circuit (for post-hoc verification).
  const ComparatorNetwork& network_so_far() const noexcept { return net_; }

  /// The refined input pattern as of the levels fed so far. An adaptive
  /// opponent (Section 5) may inspect this between levels - the argument
  /// survives even that leak, and E9 measures exactly that.
  const InputPattern& current_pattern() const noexcept { return pattern_; }

  /// The symbol currently sitting on each line (position), i.e. the
  /// pattern after the levels fed so far. The strongest adaptive opponent
  /// aims comparators using this.
  InputPattern current_state() const { return InputPattern(state_); }

 private:
  struct NodeSets {
    // Sparse collection: (set index, wires) sorted by index.
    std::vector<std::pair<std::uint32_t, std::vector<wire_t>>> sets;
  };

  void demote(wire_t w, std::uint32_t set_index, std::uint32_t xj);

  RdnTree tree_;
  std::function<void()> progress_;
  std::uint32_t k_ = 1;
  std::uint32_t level_ = 0;  // levels processed so far
  ComparatorNetwork net_;

  InputPattern pattern_;                 // input-side pattern (maintained)
  std::vector<PatternSymbol> state_;     // symbol currently on each line
  std::vector<wire_t> pos_of_wire_;      // tracked wire -> current line
  std::vector<wire_t> wire_at_pos_;      // line -> tracked wire or npos
  std::vector<NodeSets> node_sets_;      // per tree-node id (current layer)
  std::vector<int> node_of_wire_;        // wire -> current-layer node id
  std::vector<std::uint32_t> set_index_of_wire_;  // wire -> its M_i index
  std::uint32_t next_xj_ = 0;            // fresh j for X_{i,j} demotions

  Lemma41Stats stats_;
  static constexpr wire_t npos = static_cast<wire_t>(-1);
};

/// t(l) = k^3 + l k^2 (the lemma's set budget).
constexpr std::size_t lemma41_set_budget(std::uint32_t k, std::uint32_t l) {
  return static_cast<std::size_t>(k) * k * k +
         static_cast<std::size_t>(l) * k * k;
}

}  // namespace shufflebound
