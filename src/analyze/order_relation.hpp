// The ≤-relation abstract domain: what a comparator-network prefix
// provably establishes about the order of its wire values.
//
// The domain tracks, for the current slot values v_0..v_{n-1}, the set
// of pairs (x, y) for which v_x <= v_y holds on EVERY input (plus 0/1
// constant facts for slots pinned to a known value). A comparator level
// is a transfer function on this relation: each output value is min,
// max, or the identity of at most two inputs, and the new relation is
// derived from the old one by the lattice laws of min/max over a chain
//
//   min(a,b) <= Y  <=  a <= Y  or  b <= Y
//   max(a,b) <= Y  <=  a <= Y  and b <= Y
//   X <= min(c,d)  <=  X <= c  and X <= d
//   X <= max(c,d)  <=  X <= c  or  X <= d
//
// Decomposing a pair E_u <= E_v can start from either side, and the two
// orders are NOT equivalent: left-first loses facts for min <= min
// (it yields (a<=c ∧ a<=d) ∨ (b<=c ∧ b<=d) where (a<=c ∨ b<=c) ∧
// (a<=d ∨ b<=d) is sound), and right-first loses the dual facts for
// max <= max. apply_level therefore expands every pair in BOTH orders
// and keeps the union, which is exactly the set of one-level
// consequences valid over every totally ordered valuation consistent
// with the old relation (see docs/analyze.md for the separating-
// valuation argument). What stays abstract - and keeps the analysis
// sound but incomplete - is everything not expressible as a pairwise
// <=: correlations like "slot x equals a or b", which the bitonic
// cleanness argument needs, are dropped at each level boundary.
//
// Everything is bitset arithmetic: the relation is an n x n bit matrix
// kept in both row orientations (up_[x] = {y : x <= y}, down_[y] =
// {x : x <= y}). A level's column rewrites of one orientation are row
// rewrites of the other, so each expansion order is a row pass, a
// blocked 64 x 64 transpose and a second row pass: O(n^2 / 64) word
// operations per level, O(depth * n^2 / 64) for a whole network, no
// simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/gate.hpp"

namespace shufflebound {

/// A square bit matrix with 64-bit row words; the storage behind the
/// relation. Row r is a bitset over columns (bit c of row r = entry
/// (r, c)).
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t n)
      : n_(n), words_(words_per_row(n)), bits_(n * words_per_row(n), 0) {}

  std::size_t size() const noexcept { return n_; }
  std::size_t row_words() const noexcept { return words_; }

  bool test(std::size_t r, std::size_t c) const noexcept {
    return (bits_[r * words_ + c / 64] >> (c % 64)) & 1u;
  }
  void set(std::size_t r, std::size_t c) noexcept {
    bits_[r * words_ + c / 64] |= std::uint64_t{1} << (c % 64);
  }

  std::span<std::uint64_t> row(std::size_t r) noexcept {
    return {bits_.data() + r * words_, words_};
  }
  std::span<const std::uint64_t> row(std::size_t r) const noexcept {
    return {bits_.data() + r * words_, words_};
  }

  /// Number of set bits in row r.
  std::size_t row_count(std::size_t r) const noexcept;
  /// Number of set bits in the whole matrix.
  std::size_t count() const noexcept;

  /// this |= other (same dimensions required).
  void merge(const BitMatrix& other);
  /// out = transpose of this, by 64 x 64 word blocks. Reuses out's
  /// storage when it already has this size.
  void transpose_into(BitMatrix& out) const;
  /// Sets every diagonal entry.
  void set_diagonal();

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

  static std::size_t words_per_row(std::size_t n) noexcept {
    return (n + 63) / 64;
  }

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// One comparator in slot coordinates: the slot that receives the
/// minimum and the slot that receives the maximum (descending
/// comparators are normalized by swapping, exactly as in
/// sim/compiled_net.hpp).
struct LevelOp {
  std::uint32_t min_slot = 0;
  std::uint32_t max_slot = 0;

  friend bool operator==(const LevelOp&, const LevelOp&) = default;
};

/// What a level's transfer proved about each op BEFORE applying it.
enum class OpFate : std::uint8_t {
  Effective,       // neither order was known; the op does real work
  Redundant,       // min_slot <= max_slot already proven: identity
  AlwaysExchange,  // max_slot <= min_slot proven (and not Redundant):
                   // equivalent to an unconditional exchange
};

/// The relation state. Construct at full width (reflexive facts only,
/// i.e. unconstrained inputs), optionally pin constant slots, then feed
/// levels front to back with apply_level.
class OrderRelation {
 public:
  OrderRelation() = default;
  explicit OrderRelation(wire_t width);

  wire_t width() const noexcept { return width_; }

  /// Proven: value at slot x <= value at slot y on every input.
  bool leq(wire_t x, wire_t y) const noexcept { return up_.test(x, y); }

  /// The proven up-set {y : x <= y} and down-set {x : x <= y} as
  /// bitset rows of BitMatrix::words_per_row(width()) words.
  std::span<const std::uint64_t> up_set(wire_t x) const noexcept {
    return up_.row(x);
  }
  std::span<const std::uint64_t> down_set(wire_t y) const noexcept {
    return down_.row(y);
  }

  /// Constant facts: slot pinned to 0 / to 1 on every input.
  bool known_zero(wire_t s) const noexcept {
    return (zero_[s / 64] >> (s % 64)) & 1u;
  }
  bool known_one(wire_t s) const noexcept {
    return (one_[s / 64] >> (s % 64)) & 1u;
  }

  /// Pins an INPUT slot to a constant before any level is applied
  /// (truncated-input analyses; a 0 slot is <= everything, a 1 slot is
  /// >= everything).
  void pin_zero(wire_t s);
  void pin_one(wire_t s);

  /// Applies one comparator level (ops on pairwise-disjoint slots).
  /// When `fates` is non-null it must hold ops.size() entries and
  /// receives each op's fate as judged against the PRE-level relation.
  void apply_level(std::span<const LevelOp> ops, OpFate* fates = nullptr);

  /// Adds externally proven facts: for each block b, every low slot is
  /// <= every high slot, where block b is [ends[b-1], ends[b]) of both
  /// `low` and `high` (ends[-1] = 0). The analyzer uses this to inject
  /// the consequences of Batcher's bitonic split lemma, which the
  /// pairwise transfer alone cannot see (analyze/analyzer.cpp).
  ///
  /// Closing over one block is a rank-one update: with L* the union of
  /// the low slots' down-sets and H* the union of the high slots'
  /// up-sets, the closure adds exactly L* x H* (a path through several
  /// new facts shortcuts through one). O(n^2 / 64) per block; constant
  /// facts are enriched once, after the last block.
  void add_blocks(std::span<const wire_t> low, std::span<const wire_t> high,
                  std::span<const std::uint32_t> ends);

  /// Proven facts beyond reflexivity (x <= y with x != y).
  std::size_t pair_count() const noexcept;

  /// True iff order[p] <= order[p+1] is proven for every consecutive
  /// pair - with order = the network's output order, this certifies
  /// that every input leaves the outputs ascending (ties allowed), the
  /// static equivalent of zero_one_check's sorts_all.
  bool proves_chain(std::span<const wire_t> order) const noexcept;

  /// If the relation is a STRICT total order (every pair comparable,
  /// no two distinct slots forced equal), returns ranks[s] = number of
  /// slots strictly below s, a permutation of 0..n-1; otherwise
  /// nullopt. A strict total order that is not the output chain means
  /// the network sorts up to a fixed output relabeling.
  std::optional<std::vector<wire_t>> total_order_ranks() const;

  /// Exact 128-bit content hash of (width, relation, constant facts):
  /// equal states hash equal. Not relabel-invariant, and deliberately
  /// NOT the service-cache Fingerprint - different seeds, different
  /// compatibility contract.
  std::pair<std::uint64_t, std::uint64_t> fingerprint() const;

  /// Relabel-invariant hash: built from the multiset of per-slot
  /// signatures (in-degree, out-degree, sorted neighbor degree
  /// multisets), so any wire relabeling of the same relation hashes
  /// equal. Unequal hashes prove the relations differ modulo
  /// relabeling; equal hashes are only a candidate match (callers that
  /// need certainty must verify, as with any subsumption fingerprint).
  std::pair<std::uint64_t, std::uint64_t> invariant_fingerprint() const;

 private:
  void inject_constant_rows();

  wire_t width_ = 0;
  BitMatrix up_;    // row x = {y : x <= y}
  BitMatrix down_;  // row y = {x : x <= y}, always the transpose of up_
  std::vector<std::uint64_t> zero_;  // slots pinned to 0
  std::vector<std::uint64_t> one_;   // slots pinned to 1
  // Scratch sized on first use and reused: apply_level's two expansion
  // orders and add_blocks' L* / H* rows.
  BitMatrix left_;
  BitMatrix right_;
  std::vector<std::uint64_t> below_;
  std::vector<std::uint64_t> above_;
};

}  // namespace shufflebound
