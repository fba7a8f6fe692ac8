// Relabel sorters the static analyzer cannot prove, for tests that must
// reach the full relabel sweep: a window of an all-ascending bitonic
// sorter (no descending comparators), then one exchange of the outer
// wires.
#pragma once

#include <utility>

#include "core/comparator_network.hpp"

namespace shufflebound {

/// Wires [1, m + 1) of the all-ascending bitonic sorter on the next power
/// of two >= m + 1. With -infinity on the cut wire below and +infinity on
/// those above, every comparator touching a cut wire is a no-op, so the
/// window sorts; the static analyzer leaves it inconclusive (the tests
/// that rely on that assert it).
inline ComparatorNetwork ascending_bitonic_window(wire_t m) {
  wire_t width = 1;
  while (width < m + 1) width *= 2;
  ComparatorNetwork net(m);
  const auto keep = [&](Level& kept, wire_t a, wire_t b) {
    if (a >= 1 && b < m + 1)
      kept.gates.emplace_back(a - 1, b - 1, GateOp::CompareAsc);
  };
  for (wire_t k = 2; k <= width; k *= 2) {
    Level flip;
    for (wire_t b = 0; b < width; b += k)
      for (wire_t i = 0; i < k / 2; ++i) keep(flip, b + i, b + k - 1 - i);
    if (!flip.empty()) net.add_level(std::move(flip));
    for (wire_t j = k / 4; j >= 1; j /= 2) {
      Level clean;
      for (wire_t b = 0; b < width; b += 2 * j)
        for (wire_t i = 0; i < j; ++i) keep(clean, b + i, b + i + j);
      if (!clean.empty()) net.add_level(std::move(clean));
    }
  }
  return net;
}

/// The window with wires 0 and m - 1 exchanged at the end: it sorts up
/// to the relabel that swaps ranks 0 and m - 1, and nothing proves it
/// statically.
inline ComparatorNetwork unprovable_relabel_sorter(wire_t m) {
  ComparatorNetwork net = ascending_bitonic_window(m);
  net.add_level({Gate(0, m - 1, GateOp::Exchange)});
  return net;
}

}  // namespace shufflebound
