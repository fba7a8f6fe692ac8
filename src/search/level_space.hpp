// Precomputed per-width tables for depth-optimal search: the candidate
// comparator levels (all non-empty matchings on n wires, deterministic
// order), the mover mask + index delta of every wire pair (the inputs
// to OutputSet::apply_comparator), weight-class masks, and the
// acceptance test.
//
// Acceptance is "sorts up to a fixed output relabeling": the state has
// exactly one vector per 0/1 weight class and the vectors form a
// ⊆-chain. This is equivalent to strict sorting up to conjugating the
// network by a wire relabeling (see docs/search.md), matches what
// zero_one_check_up_to_relabel certifies, and is relabel-invariant -
// which is what lets the search fix the first layer and canonicalize
// two-layer prefixes without losing optima.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/gate.hpp"
#include "search/output_set.hpp"

namespace shufflebound {

/// Widest width the searcher accepts: the published optimal-depth table
/// (search/search.hpp) ends at 12, and the 2^n state masks and the
/// matching count (140k at n = 12) grow steeply past it.
inline constexpr wire_t kSearchWidthCap = 12;

/// One candidate comparator level: an ascending comparator on every
/// listed pair (lo < hi), pairwise wire-disjoint.
struct Matching {
  std::vector<std::pair<std::uint8_t, std::uint8_t>> pairs;
  std::uint32_t touched = 0;            // bitmask of wires used
  std::vector<std::uint16_t> pair_ids;  // LevelSpace pair index per pair
};

/// Set of wire pairs as a fixed-size bitset (n(n-1)/2 <= 66 pairs at
/// the width cap).
struct PairSet {
  std::array<std::uint64_t, 2> bits{0, 0};

  void set(std::uint16_t id) noexcept {
    bits[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  bool test(std::uint16_t id) const noexcept {
    return (bits[id / 64] >> (id % 64)) & 1u;
  }
};

class LevelSpace {
 public:
  explicit LevelSpace(wire_t n);

  wire_t width() const noexcept { return n_; }
  std::size_t set_words() const noexcept { return words_; }
  std::size_t pair_count() const noexcept { return pair_lo_.size(); }

  std::uint16_t pair_id(wire_t lo, wire_t hi) const noexcept {
    return pair_index_[lo * n_ + hi];
  }
  wire_t pair_lo(std::uint16_t id) const noexcept { return pair_lo_[id]; }
  wire_t pair_hi(std::uint16_t id) const noexcept { return pair_hi_[id]; }

  std::span<const std::uint64_t> mover(std::uint16_t id) const noexcept {
    return {movers_.data() + std::size_t(id) * words_, words_};
  }
  std::uint64_t delta(std::uint16_t id) const noexcept { return deltas_[id]; }

  /// All non-empty matchings, in a deterministic enumeration order
  /// (shared by serial and parallel search, so child tie-breaks agree).
  const std::vector<Matching>& matchings() const noexcept { return matchings_; }

  /// Index of the maximal first-layer matching (0,1)(2,3)... in
  /// matchings(); every searched network starts with it.
  std::size_t first_layer_id() const noexcept { return first_layer_id_; }

  /// Pairs (lo, hi) that do work on S: some member has 1 at lo, 0 at hi.
  PairSet useful_pairs(const OutputSet& s) const noexcept;

  /// Applies a matching's comparators to S in place. `scratch` needs
  /// set_words() words.
  void apply_matching(OutputSet& s, const Matching& m,
                      std::span<std::uint64_t> scratch) const noexcept;

  /// Acceptance: one vector per weight class, forming a ⊆-chain.
  bool accepts(const OutputSet& s) const;

  /// Per-weight-class populations (out must hold width()+1 entries).
  /// Componentwise <= is a necessary condition for output-set inclusion -
  /// the subsumption pass's byte-signature pre-filter.
  void class_counts(const OutputSet& s, std::span<std::size_t> out) const
      noexcept;

  /// Largest weight-class population - the countdown filter's input: a
  /// level with k comparators maps a class at most 2^k-to-1, so a state
  /// with max class count c needs at least ceil(log2 c / floor(n/2))
  /// further levels.
  std::size_t max_class_count(const OutputSet& s) const noexcept;

  /// The countdown filter itself: true iff the state provably cannot be
  /// finished within `remaining` levels.
  bool countdown_prunes(const OutputSet& s, std::size_t remaining) const
      noexcept;

 private:
  wire_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint16_t> pair_index_;  // n*n lookup (lo < hi)
  std::vector<wire_t> pair_lo_;
  std::vector<wire_t> pair_hi_;
  std::vector<std::uint64_t> movers_;  // pair_count * words_
  std::vector<std::uint64_t> deltas_;
  std::vector<std::uint64_t> weight_masks_;  // (n+1) * words_
  std::vector<Matching> matchings_;
  std::size_t first_layer_id_ = 0;
};

}  // namespace shufflebound
