// Level-compiled network representation: the shared substrate of the
// wide-lane kernel engine.
//
// Every network model in the library (circuit, register, iterated RDN)
// evaluates by walking its own structure - gate lists behind a level
// vector, permutation steps, stage chunks - and branching on the gate
// op per element. That walk is pure overhead on the certification hot
// path, where the same network is evaluated on millions of inputs.
//
// compile() flattens a network ONCE into a structure-of-arrays op
// table that every later evaluation replays:
//
//  * Exchange ("1") elements and the register model's permutation
//    steps are data movement, not computation. The compiler tracks
//    them symbolically in a slot indirection while emitting ops, so
//    the compiled program contains ONLY comparators and the evaluation
//    loop moves no data at all. A final `output_order` permutation
//    records where each output position's value ends up.
//  * Descending comparators are normalized away: each op stores the
//    slot that receives the minimum and the slot that receives the
//    maximum, making the inner loop a single branch-free form
//    (AND/OR on packed 0/1 words, min/max on integer values).
//  * Ops are stored as parallel arrays (min_slot[], max_slot[]) grouped
//    by level (level_offsets), shared read-only across any number of
//    concurrent evaluations.
//  * The whole compiled form - op arrays, level offsets, output order -
//    is SEALED into one contiguous uint32 block at compile() time, so a
//    sweep touches a single allocation laid out in evaluation order and
//    the arena (sim/arena.hpp) can batch many networks into dense,
//    accurately-accounted storage (bytes()).
//
// Determinism contract: a compiled network is a pure function of the
// source network; evaluation touches no global state, so all engine
// results built on it remain a function of (network, inputs) alone,
// independent of lane width, thread count, and build flags. The
// compiled table is replayed by the dispatched sweep kernels
// (sim/isa.hpp), the integer apply() below, and the frontier's level
// walk; tests/test_simd.cpp holds every dispatched path to bit-for-bit
// agreement with the structure-walking reference (core/bitparallel.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "networks/rdn.hpp"

namespace shufflebound {

class CompiledNetwork {
 public:
  CompiledNetwork() = default;

  wire_t width() const noexcept { return width_; }
  /// Comparator ops in the compiled program (exchanges are elided).
  std::size_t op_count() const noexcept { return op_count_; }
  /// Source levels/steps (including empty ones), for stats and replay.
  std::size_t level_count() const noexcept {
    return level_entry_count_ == 0 ? 0 : level_entry_count_ - 1;
  }
  /// Heap footprint of the sealed table - what the arena accounts under
  /// arena.bytes.
  std::size_t bytes() const noexcept {
    return table_.size() * sizeof(std::uint32_t);
  }
  /// output_order()[p] = slot holding output position p (wire p in the
  /// circuit model, register p in the register model, final slot p for
  /// an iterated RDN).
  std::span<const wire_t> output_order() const noexcept {
    return section(2 * std::size_t{op_count_} + level_entry_count_, width_);
  }
  /// Raw op table, for engines that walk ops level by level (the
  /// frontier certifier): op i takes min into min_slots()[i] and max
  /// into max_slots()[i]; level l owns ops [level_offsets()[l],
  /// level_offsets()[l+1]). Empty networks have an empty offsets span.
  std::span<const std::uint32_t> min_slots() const noexcept {
    return section(0, op_count_);
  }
  std::span<const std::uint32_t> max_slots() const noexcept {
    return section(op_count_, op_count_);
  }
  std::span<const std::uint32_t> level_offsets() const noexcept {
    return section(2 * std::size_t{op_count_}, level_entry_count_);
  }

  /// Integer kernel: evaluates the network on `values` (values[i] =
  /// input to wire/register i) and leaves the outputs IN OUTPUT ORDER
  /// (values[p] = output position p), using `scratch` for the final
  /// reorder. Comparators act as branchless min/max, which matches the
  /// models' evaluators exactly on integer values (ties carry no
  /// identity; the compiled path is not for pattern-symbol evaluation).
  void apply(std::vector<wire_t>& values, std::vector<wire_t>& scratch) const;

  /// Same, invoking observer.on_compare(level, gate, a, b) for every
  /// comparator with the pre-op values - the instrumented replay behind
  /// witness checking. The outputs are left in output order too, so they
  /// equal the source model's evaluate() of the same input. The Gate argument carries the compiled slot pair
  /// (not source wires); value-based observers like ComparisonRecorder
  /// see exactly the comparisons the source network performs.
  template <typename Observer>
  void apply_with_observer(std::vector<wire_t>& values,
                           std::vector<wire_t>& scratch,
                           Observer&& observer) const {
    run_ops_observed(values, observer);
    reorder(values, scratch);
  }

 private:
  /// op_levels()[i] = source level/step of op i (cold section; only the
  /// observed replay reads it).
  std::span<const std::uint32_t> op_levels() const noexcept {
    return section(2 * std::size_t{op_count_} + level_entry_count_ + width_,
                   op_count_);
  }

  std::span<const std::uint32_t> section(std::size_t offset,
                                         std::size_t count) const noexcept {
    return {table_.data() + offset, count};
  }

  template <typename Observer>
  void run_ops_observed(std::vector<wire_t>& values,
                        Observer&& observer) const {
    const std::span<const std::uint32_t> mins = min_slots();
    const std::span<const std::uint32_t> maxs = max_slots();
    const std::span<const std::uint32_t> levels = op_levels();
    for (std::size_t i = 0; i < op_count_; ++i) {
      const std::uint32_t mn = mins[i];
      const std::uint32_t mx = maxs[i];
      const wire_t a = values[mn];
      const wire_t b = values[mx];
      observer.on_compare(levels[i], Gate(mn, mx, GateOp::CompareAsc), a, b);
      values[mn] = a < b ? a : b;
      values[mx] = a < b ? b : a;
    }
  }

  void reorder(std::vector<wire_t>& values,
               std::vector<wire_t>& scratch) const;

  friend class NetworkCompiler;

  wire_t width_ = 0;
  std::uint32_t op_count_ = 0;
  std::uint32_t level_entry_count_ = 0;  // level_count() + 1; 0 when empty
  /// The sealed table: one allocation holding, in order, the hot
  /// sections the packed kernel walks (min slots, max slots), the
  /// level/order sections engines index (level offsets, output order),
  /// and the cold per-op level tags for observed replay.
  std::vector<std::uint32_t> table_;
};

/// Compiles a circuit network. Output order is wire order (non-identity
/// only when the circuit contains Exchange gates, which are elided).
CompiledNetwork compile(const ComparatorNetwork& net);

/// Compiles a register network. Permutation steps are absorbed into the
/// slot indirection; output order is register order.
CompiledNetwork compile(const RegisterNetwork& net);

/// Compiles an iterated RDN. Stage pre-permutations are absorbed;
/// output order is final slot order.
CompiledNetwork compile(const IteratedRdn& net);

}  // namespace shufflebound
