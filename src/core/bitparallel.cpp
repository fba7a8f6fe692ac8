#include "core/bitparallel.hpp"

#include <stdexcept>
#include <utility>

namespace shufflebound {

namespace {

/// One gate on two packed words: a comparator is AND (min) and OR (max),
/// an exchange swaps.
inline void gate_step(GateOp op, std::uint64_t& a, std::uint64_t& b) {
  switch (op) {
    case GateOp::CompareAsc: {
      const std::uint64_t mn = a & b;
      b |= a;
      a = mn;
      break;
    }
    case GateOp::CompareDesc: {
      const std::uint64_t mn = a & b;
      a |= b;
      b = mn;
      break;
    }
    case GateOp::Exchange:
      std::swap(a, b);
      break;
    case GateOp::Passthrough:
      break;
  }
}

}  // namespace

void evaluate_packed(const ComparatorNetwork& net,
                     std::vector<std::uint64_t>& words) {
  if (words.size() != net.width())
    throw std::invalid_argument("evaluate_packed: width mismatch");
  for (const Level& level : net.levels())
    for (const Gate& g : level.gates) gate_step(g.op, words[g.lo], words[g.hi]);
}

void evaluate_packed(const RegisterNetwork& net,
                     std::vector<std::uint64_t>& words) {
  if (words.size() != net.width())
    throw std::invalid_argument("evaluate_packed: width mismatch");
  std::vector<std::uint64_t> scratch(words.size());
  for (const RegisterStep& step : net.steps()) {
    for (wire_t r = 0; r < words.size(); ++r) scratch[step.perm[r]] = words[r];
    words.swap(scratch);
    for (std::size_t k = 0; 2 * k + 1 < words.size(); ++k)
      gate_step(step.ops[k], words[2 * k], words[2 * k + 1]);
  }
}

}  // namespace shufflebound
