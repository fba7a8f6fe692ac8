#include "search/level_space.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace shufflebound {

namespace {

// Enumerates every matching on wires [0, n) in a fixed recursive order:
// at the lowest unused wire, first leave it unmatched, then pair it
// with each higher unused wire in ascending order. The order is part of
// the search's determinism contract - child tie-breaks reference it.
void enumerate_matchings(wire_t n, std::uint32_t used,
                         std::vector<std::pair<std::uint8_t, std::uint8_t>>&
                             current,
                         std::vector<Matching>& out) {
  wire_t w = 0;
  while (w < n && ((used >> w) & 1u)) ++w;
  if (w >= n) {
    if (!current.empty()) {
      Matching m;
      m.pairs = current;
      for (const auto& [lo, hi] : current)
        m.touched |= (std::uint32_t{1} << lo) | (std::uint32_t{1} << hi);
      out.push_back(std::move(m));
    }
    return;
  }
  // Leave w unmatched.
  enumerate_matchings(n, used | (std::uint32_t{1} << w), current, out);
  // Pair w with each higher unused wire.
  for (wire_t j = w + 1; j < n; ++j) {
    if ((used >> j) & 1u) continue;
    current.emplace_back(std::uint8_t(w), std::uint8_t(j));
    enumerate_matchings(
        n, used | (std::uint32_t{1} << w) | (std::uint32_t{1} << j), current,
        out);
    current.pop_back();
  }
}

}  // namespace

LevelSpace::LevelSpace(wire_t n) : n_(n) {
  if (n == 0 || n > kSearchWidthCap)
    throw std::invalid_argument(
        "LevelSpace: width must be in [1, " +
        std::to_string(kSearchWidthCap) + "]");
  words_ = OutputSet::word_count(n);

  // Wire-pair tables: id, mover mask, delta.
  pair_index_.assign(std::size_t(n) * n, 0);
  const std::uint64_t total = std::uint64_t{1} << n;
  for (wire_t lo = 0; lo < n; ++lo) {
    for (wire_t hi = wire_t(lo + 1); hi < n; ++hi) {
      const auto id = std::uint16_t(pair_lo_.size());
      pair_index_[std::size_t(lo) * n + hi] = id;
      pair_lo_.push_back(lo);
      pair_hi_.push_back(hi);
      deltas_.push_back((std::uint64_t{1} << hi) - (std::uint64_t{1} << lo));
      movers_.resize(movers_.size() + words_, 0);
      auto mover = std::span<std::uint64_t>(
          movers_.data() + std::size_t(id) * words_, words_);
      for (std::uint64_t v = 0; v < total; ++v) {
        const bool at_lo = ((v >> lo) & 1u) != 0;
        const bool at_hi = ((v >> hi) & 1u) != 0;
        if (at_lo && !at_hi) mover[v / 64] |= std::uint64_t{1} << (v % 64);
      }
    }
  }

  // Weight-class masks.
  weight_masks_.assign(std::size_t(n + 1) * words_, 0);
  for (std::uint64_t v = 0; v < total; ++v) {
    const auto k = std::size_t(std::popcount(v));
    weight_masks_[k * words_ + v / 64] |= std::uint64_t{1} << (v % 64);
  }

  // Matchings with their pair-id lists.
  std::vector<std::pair<std::uint8_t, std::uint8_t>> current;
  enumerate_matchings(n, 0, current, matchings_);
  for (Matching& m : matchings_) {
    for (const auto& [lo, hi] : m.pairs)
      m.pair_ids.push_back(pair_id(lo, hi));
  }

  // Locate the fixed first layer (0,1)(2,3)...
  std::vector<std::pair<std::uint8_t, std::uint8_t>> first;
  for (wire_t w = 0; w + 1 < n; w = wire_t(w + 2))
    first.emplace_back(std::uint8_t(w), std::uint8_t(w + 1));
  first_layer_id_ = matchings_.size();
  for (std::size_t i = 0; i < matchings_.size(); ++i) {
    if (matchings_[i].pairs == first) {
      first_layer_id_ = i;
      break;
    }
  }
  if (n >= 2 && first_layer_id_ == matchings_.size())
    throw std::logic_error("LevelSpace: first layer not found");
}

PairSet LevelSpace::useful_pairs(const OutputSet& s) const noexcept {
  PairSet set;
  for (std::size_t id = 0; id < pair_lo_.size(); ++id) {
    if (s.intersects(mover(std::uint16_t(id)))) set.set(std::uint16_t(id));
  }
  return set;
}

void LevelSpace::apply_matching(OutputSet& s, const Matching& m,
                                std::span<std::uint64_t> scratch) const
    noexcept {
  for (std::uint16_t id : m.pair_ids)
    s.apply_comparator(mover(id), deltas_[id], scratch);
}

bool LevelSpace::accepts(const OutputSet& s) const {
  // Collect members, bailing as soon as there are more than n + 1.
  std::array<std::uint64_t, kSearchWidthCap + 1> members{};
  std::size_t found = 0;
  const auto words = s.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      if (found > std::size_t(n_)) return false;
      members[found++] =
          w * 64 + std::uint64_t(std::countr_zero(word));
      word &= word - 1;
    }
  }
  if (found != std::size_t(n_) + 1) return false;
  // Exactly one member per weight class, and the members form a
  // ⊆-chain once sorted by weight.
  std::sort(members.begin(), members.begin() + std::ptrdiff_t(found),
            [](std::uint64_t a, std::uint64_t b) {
              return std::popcount(a) < std::popcount(b);
            });
  for (std::size_t k = 0; k < found; ++k) {
    if (std::size_t(std::popcount(members[k])) != k) return false;
    if (k + 1 < found && (members[k] & ~members[k + 1]) != 0) return false;
  }
  return true;
}

void LevelSpace::class_counts(const OutputSet& s,
                              std::span<std::size_t> out) const noexcept {
  const auto words = s.words();
  for (std::size_t k = 0; k <= std::size_t(n_); ++k) {
    const std::uint64_t* mask = weight_masks_.data() + k * words_;
    std::size_t c = 0;
    for (std::size_t w = 0; w < words.size(); ++w)
      c += std::size_t(std::popcount(words[w] & mask[w]));
    out[k] = c;
  }
}

std::size_t LevelSpace::max_class_count(const OutputSet& s) const noexcept {
  std::size_t best = 0;
  const auto words = s.words();
  for (std::size_t k = 0; k <= std::size_t(n_); ++k) {
    const std::uint64_t* mask = weight_masks_.data() + k * words_;
    std::size_t c = 0;
    for (std::size_t w = 0; w < words.size(); ++w)
      c += std::size_t(std::popcount(words[w] & mask[w]));
    best = std::max(best, c);
  }
  return best;
}

bool LevelSpace::countdown_prunes(const OutputSet& s,
                                  std::size_t remaining) const noexcept {
  // ceil(log2 max_class_count) > remaining * floor(n/2) => no suffix of
  // that many levels can collapse every weight class to one vector.
  const std::size_t c = max_class_count(s);
  if (c <= 1) return false;
  const auto need = std::size_t(std::bit_width(c - 1));
  return need > remaining * std::size_t(n_ / 2);
}

}  // namespace shufflebound
