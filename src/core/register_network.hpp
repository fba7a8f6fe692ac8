// The register model of a comparator network (Section 1 of the paper).
//
// A network on n registers is a sequence of steps (Pi_i, x_i) where Pi_i
// is a permutation of the registers and x_i is a vector of n/2 operations
// from {+, -, 0, 1}. Step i first moves the content of register j to
// register Pi_i(j), then applies x_i[k] to the register pair (2k, 2k+1).
//
// A network is *based on the shuffle permutation* if every Pi_i is the
// shuffle pi; this is the class the paper's lower bound addresses.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/comparator_network.hpp"
#include "core/gate.hpp"
#include "perm/permutation.hpp"

namespace shufflebound {

struct RegisterStep {
  Permutation perm;            // applied first: register j -> register perm(j)
  std::vector<GateOp> ops;     // ops[k] acts on registers (2k, 2k+1)
};

class RegisterNetwork {
 public:
  RegisterNetwork() = default;
  explicit RegisterNetwork(wire_t width) : width_(width) {
    if (width % 2 != 0 && width != 1)
      throw std::invalid_argument("RegisterNetwork: width must be even");
  }

  wire_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return steps_.size(); }
  const std::vector<RegisterStep>& steps() const noexcept { return steps_; }
  const RegisterStep& step(std::size_t i) const { return steps_.at(i); }

  void add_step(RegisterStep step);

  /// Adds a step whose permutation is the shuffle. `ops` must have n/2
  /// entries.
  void add_shuffle_step(std::vector<GateOp> ops);

  /// True iff every step's permutation is the shuffle permutation (never,
  /// when the width is not a power of two).
  bool is_shuffle_based() const;

  std::size_t comparator_count() const noexcept;

  /// Evaluates the network on register contents `values` in place.
  /// `scratch` is reused for the permutation steps. The observer sees every
  /// comparison ("+"/"-" ops only), with a Gate describing the *register*
  /// pair acted on.
  template <typename T, typename Less = std::less<T>,
            typename Observer = NullObserver>
  void evaluate_in_place(std::vector<T>& values, Less less = {},
                         Observer&& observer = Observer{}) const {
    if (values.size() != width_)
      throw std::invalid_argument("RegisterNetwork::evaluate: width mismatch");
    std::vector<T> scratch;
    for (std::size_t si = 0; si < steps_.size(); ++si) {
      const RegisterStep& step = steps_[si];
      step.perm.apply_in_place(values, scratch);
      for (std::size_t k = 0; 2 * k + 1 < values.size(); ++k) {
        T& a = values[2 * k];
        T& b = values[2 * k + 1];
        switch (step.ops[k]) {
          case GateOp::CompareAsc:
            observer.on_compare(si,
                                Gate(static_cast<wire_t>(2 * k),
                                     static_cast<wire_t>(2 * k + 1),
                                     GateOp::CompareAsc),
                                a, b);
            if (less(b, a)) std::swap(a, b);
            break;
          case GateOp::CompareDesc:
            observer.on_compare(si,
                                Gate(static_cast<wire_t>(2 * k),
                                     static_cast<wire_t>(2 * k + 1),
                                     GateOp::CompareDesc),
                                a, b);
            if (less(a, b)) std::swap(a, b);
            break;
          case GateOp::Exchange:
            std::swap(a, b);
            break;
          case GateOp::Passthrough:
            break;
        }
      }
    }
  }

  template <typename T, typename Less = std::less<T>>
  std::vector<T> evaluate(std::vector<T> values, Less less = {}) const {
    evaluate_in_place(values, less);
    return values;
  }

 private:
  wire_t width_ = 0;
  std::vector<RegisterStep> steps_;
};

/// Result of flattening a register network into the circuit model.
///
/// Circuit wire w corresponds to the value initially held by register w.
/// After evaluation, register r of the register network holds the value of
/// circuit wire `register_to_wire(r)` - the permutation steps move values
/// between registers, while circuit wires are fixed lines.
struct FlattenedNetwork {
  ComparatorNetwork circuit;
  Permutation register_to_wire;  // final placement map
};

/// Converts the register model to the circuit model (the equivalence the
/// paper appeals to). Exchange ("1") ops are emitted as Exchange gates;
/// comparator ops become comparator gates between the circuit wires whose
/// values currently sit in the register pair; "0" ops are dropped. Depth
/// and comparator count are preserved exactly.
FlattenedNetwork register_to_circuit(const RegisterNetwork& net);

/// Converts a circuit network to the register model: each level becomes a
/// step whose permutation brings every gate's two wires into an adjacent
/// register pair. Depth and comparator count are preserved exactly.
/// The returned `register_to_wire` plays the same role as in
/// register_to_circuit (final placement of wire values in registers).
struct RegisterizedNetwork {
  RegisterNetwork net;
  Permutation register_to_wire;
};
RegisterizedNetwork circuit_to_register(const ComparatorNetwork& net);

}  // namespace shufflebound
