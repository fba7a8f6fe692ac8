// Permutations of {0, ..., n-1}.
//
// Two roles in this library:
//  * inputs to comparator networks are permutations (the paper restricts
//    attention to one-to-one inputs), and
//  * the register model of a comparator network interleaves comparator
//    levels with fixed permutations Pi_i of the registers (the shuffle
//    permutation pi being the case the paper studies).
//
// Conventions. A Permutation p maps source index j to target index p[j].
// "Applying" p to a vector v produces out with out[p[j]] = v[j]: the value
// in register j moves to register p[j]. This matches the card-deck reading
// of the perfect shuffle: the card at position j of the deck moves to
// position pi(j).
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {

using wire_t = std::uint32_t;

class Permutation {
 public:
  Permutation() = default;

  /// Identity permutation on n points.
  static Permutation identity(wire_t n);

  /// Builds from an explicit image table; validates bijectivity.
  explicit Permutation(std::vector<wire_t> image);
  Permutation(std::initializer_list<wire_t> image)
      : Permutation(std::vector<wire_t>(image)) {}

  wire_t size() const noexcept { return static_cast<wire_t>(image_.size()); }
  bool empty() const noexcept { return image_.empty(); }

  /// Image of point j.
  wire_t operator()(wire_t j) const { return image_.at(j); }
  wire_t operator[](wire_t j) const noexcept { return image_[j]; }

  std::span<const wire_t> image() const noexcept { return image_; }

  /// Functional composition: (a.then(b))(j) == b(a(j)).
  Permutation then(const Permutation& b) const;

  Permutation inverse() const;

  bool is_identity() const noexcept;

  /// Applies the permutation to values: out[p(j)] = v[j].
  template <typename T>
  std::vector<T> apply(std::span<const T> v) const {
    if (v.size() != image_.size())
      throw std::invalid_argument("Permutation::apply: size mismatch");
    std::vector<T> out(v.size());
    for (std::size_t j = 0; j < v.size(); ++j) out[image_[j]] = v[j];
    return out;
  }

  template <typename T>
  std::vector<T> apply(const std::vector<T>& v) const {
    return apply(std::span<const T>(v));
  }

  /// In-place application via an explicitly provided scratch buffer.
  template <typename T>
  void apply_in_place(std::vector<T>& v, std::vector<T>& scratch) const {
    if (v.size() != image_.size())
      throw std::invalid_argument("Permutation::apply_in_place: size mismatch");
    scratch.resize(v.size());
    for (std::size_t j = 0; j < v.size(); ++j) scratch[image_[j]] = v[j];
    v.swap(scratch);
  }

  /// Cycle decomposition; each cycle lists its elements starting from the
  /// smallest, in traversal order. Fixed points appear as 1-cycles.
  std::vector<std::vector<wire_t>> cycles() const;

  /// +1 for even permutations, -1 for odd ones.
  int parity() const;

  friend bool operator==(const Permutation&, const Permutation&) = default;

 private:
  std::vector<wire_t> image_;
};

/// The shuffle permutation pi on n = 2^d points: the binary representation
/// j_{d-1}...j_0 of j maps to j_{d-2}...j_0 j_{d-1} (rotate-left of index
/// bits). Throws unless n is a power of two.
Permutation shuffle_permutation(wire_t n);

/// The unshuffle permutation pi^{-1} (rotate-right of index bits).
Permutation unshuffle_permutation(wire_t n);

/// Bit-reversal permutation on n = 2^d points.
Permutation bit_reversal_permutation(wire_t n);

/// Uniformly random permutation on n points (Fisher-Yates over `rng`).
Permutation random_permutation(wire_t n, Prng& rng);

}  // namespace shufflebound
