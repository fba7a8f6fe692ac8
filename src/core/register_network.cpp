#include "core/register_network.hpp"

#include <numeric>

#include "core/comparator_network.hpp"
#include "util/bits.hpp"

namespace shufflebound {

void RegisterNetwork::add_step(RegisterStep step) {
  if (step.perm.size() != width_)
    throw std::invalid_argument("RegisterNetwork::add_step: permutation size");
  if (step.ops.size() != width_ / 2)
    throw std::invalid_argument("RegisterNetwork::add_step: ops size");
  steps_.push_back(std::move(step));
}

void RegisterNetwork::add_shuffle_step(std::vector<GateOp> ops) {
  add_step(RegisterStep{shuffle_permutation(width_), std::move(ops)});
}

bool RegisterNetwork::is_shuffle_based() const {
  if (width_ == 0) return true;
  if (!is_pow2(width_)) return false;  // no shuffle exists on this width
  const Permutation shuffle = shuffle_permutation(width_);
  for (const RegisterStep& step : steps_)
    if (step.perm != shuffle) return false;
  return true;
}

std::size_t RegisterNetwork::comparator_count() const noexcept {
  std::size_t count = 0;
  for (const RegisterStep& step : steps_)
    for (const GateOp op : step.ops)
      if (is_comparator(op)) ++count;
  return count;
}

FlattenedNetwork register_to_circuit(const RegisterNetwork& net) {
  const wire_t n = net.width();
  ComparatorNetwork circuit(n);
  // wire_at[r] = circuit wire whose value currently occupies register r.
  // Only the permutation steps move wires between registers; gates (incl.
  // emitted exchanges) move values along fixed wires.
  std::vector<wire_t> wire_at(n);
  std::iota(wire_at.begin(), wire_at.end(), 0u);
  std::vector<wire_t> scratch(n);

  for (const RegisterStep& step : net.steps()) {
    for (wire_t r = 0; r < n; ++r) scratch[step.perm[r]] = wire_at[r];
    wire_at.swap(scratch);
    Level level;
    for (std::size_t k = 0; 2 * k + 1 < n; ++k) {
      const GateOp op = step.ops[k];
      if (op == GateOp::Passthrough) continue;
      // Gate's first constructor argument receives the min for CompareAsc;
      // register 2k is where "+" stores the smaller value.
      level.gates.emplace_back(wire_at[2 * k], wire_at[2 * k + 1], op);
    }
    circuit.add_level(std::move(level));
  }
  return FlattenedNetwork{std::move(circuit),
                          Permutation(std::move(wire_at))};
}

RegisterizedNetwork circuit_to_register(const ComparatorNetwork& net) {
  const wire_t n = net.width();
  if (n % 2 != 0)
    throw std::invalid_argument("circuit_to_register: odd width");
  RegisterNetwork out(n);
  // wire_at[r] = circuit wire whose value occupies register r.
  std::vector<wire_t> wire_at(n);
  std::iota(wire_at.begin(), wire_at.end(), 0u);

  for (const Level& level : net.levels()) {
    // Decide the target register of every wire: gate k's endpoints go to
    // registers (2k, 2k+1); remaining wires fill the leftover registers in
    // ascending wire order.
    std::vector<wire_t> target_of_wire(n, n);  // n = unassigned marker
    std::vector<GateOp> ops(n / 2, GateOp::Passthrough);
    std::size_t k = 0;
    for (const Gate& g : level.gates) {
      target_of_wire[g.lo] = static_cast<wire_t>(2 * k);
      target_of_wire[g.hi] = static_cast<wire_t>(2 * k + 1);
      switch (g.op) {
        case GateOp::CompareAsc:
          ops[k] = GateOp::CompareAsc;  // min to register 2k, which holds lo
          break;
        case GateOp::CompareDesc:
          ops[k] = GateOp::CompareDesc;
          break;
        case GateOp::Exchange:
          ops[k] = GateOp::Exchange;
          break;
        case GateOp::Passthrough:
          break;
      }
      ++k;
    }
    wire_t next_free = static_cast<wire_t>(2 * k);
    for (wire_t w = 0; w < n; ++w) {
      if (target_of_wire[w] == n) target_of_wire[w] = next_free++;
    }
    // The step permutation acts on registers: register r (holding wire
    // wire_at[r]) must move to target_of_wire[wire_at[r]].
    std::vector<wire_t> perm(n);
    for (wire_t r = 0; r < n; ++r) perm[r] = target_of_wire[wire_at[r]];
    for (wire_t w = 0; w < n; ++w) wire_at[target_of_wire[w]] = w;
    out.add_step(RegisterStep{Permutation(std::move(perm)), std::move(ops)});
  }
  return RegisterizedNetwork{std::move(out), Permutation(std::move(wire_at))};
}

}  // namespace shufflebound
