// Packed 0-1 input construction for the bit-parallel kernels.
//
// Vector index v (the integer whose bit w is the 0/1 value fed to wire
// w) is enumerated in blocks; the word for wire w covering indices
// [lo, lo + 64) has bit s = bit w of (lo + s). With lo a multiple of 64,
// bits below 6 come from s alone (a fixed pattern per wire) and bits
// >= 6 come from lo alone (an all-0s/all-1s word), so a block is
// assembled without per-bit loops. Used by the dispatched sweep kernels
// (sim/isa.hpp) and the relabel sweep.
#pragma once

#include <cstdint>

namespace shufflebound::simd {

/// pattern_word(w, lo): packed bit w of vectors lo..lo+63. Precondition:
/// lo is a multiple of 64.
inline std::uint64_t pattern_word(std::uint32_t w, std::uint64_t lo) {
  constexpr std::uint64_t kLowBits[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  if (w < 6) return kLowBits[w];
  return (lo >> w & 1ull) != 0 ? ~0ull : 0ull;
}

/// Valid-bit mask for the word covering vectors [lo, lo + 64) when only
/// indices below `total` exist: all-ones for full words, a low-bit mask
/// for the tail, zero past the end.
inline std::uint64_t valid_mask(std::uint64_t lo, std::uint64_t total) {
  if (lo >= total) return 0;
  const std::uint64_t left = total - lo;
  return left >= 64 ? ~0ull : (1ull << left) - 1;
}

}  // namespace shufflebound::simd
