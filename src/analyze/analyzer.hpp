// Static network analyses on top of the ≤-relation domain
// (analyze/order_relation.hpp): sorter certification, redundant-
// comparator detection and elimination, structural diagnostics, and
// subsumption fingerprints. Everything here is O(depth * n^2 / 64) word
// arithmetic over the comparator structure - no input is ever
// evaluated, which is what lets certification reach widths no sweep or
// frontier pass can (and what makes the Inconclusive verdict a real
// outcome: the analysis is sound, not complete).
//
// The analyses run over a LevelProgram: a model-neutral view of a
// network in slot coordinates, with exchanges and permutation steps
// already folded into a slot indirection, exactly mirroring
// sim/compiled_net.hpp. Build one from a circuit with level_program(),
// or from any already-compiled network with
// level_program_from_compiled() (a template so this library needs no
// link-time dependency on the simulation engines that consume it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "analyze/order_relation.hpp"
#include "core/comparator_network.hpp"

namespace shufflebound {

/// A network reduced to comparator ops in slot coordinates, level by
/// level. `output_order[p]` = slot holding output position p.
struct LevelProgram {
  wire_t width = 0;
  std::vector<std::vector<LevelOp>> levels;
  std::vector<wire_t> output_order;
};

/// Builds the slot-coordinate view of a circuit: comparators become
/// ops, exchanges fold into the slot indirection (same normalization as
/// compile(), including descending comparators swapping min/max slots).
LevelProgram level_program(const ComparatorNetwork& net);

/// Same view from anything exposing the CompiledNetwork accessors
/// (width / min_slots / max_slots / level_offsets / output_order).
template <typename Compiled>
LevelProgram level_program_from_compiled(const Compiled& net) {
  LevelProgram prog;
  prog.width = net.width();
  const auto mins = net.min_slots();
  const auto maxs = net.max_slots();
  const auto offsets = net.level_offsets();
  const std::size_t levels = net.level_count();
  prog.levels.resize(levels);
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::uint32_t i = offsets[l]; i < offsets[l + 1]; ++i)
      prog.levels[l].push_back(LevelOp{mins[i], maxs[i]});
  }
  const auto order = net.output_order();
  prog.output_order.assign(order.begin(), order.end());
  return prog;
}

/// What the analysis proved about the whole network.
enum class AnalyzeVerdict : std::uint8_t {
  Certified,            // output chain proven: sorts every input
  CertifiedUpToRelabel, // strict total order proven, but not in output
                        // order: sorts up to a fixed output relabeling
  Inconclusive,         // no proof - says NOTHING about non-sorting
};

const char* analyze_verdict_name(AnalyzeVerdict verdict) noexcept;

/// One comparator the analysis proved trivial, in source coordinates:
/// `level` indexes the network's levels, `op_in_level` is the ordinal
/// among that level's COMPARATORS (exchanges are wiring and don't
/// count), matching both LevelProgram and the compiled op table.
struct OpFinding {
  std::uint32_t level = 0;
  std::uint32_t op_in_level = 0;
  std::uint32_t min_slot = 0;
  std::uint32_t max_slot = 0;
  OpFate fate = OpFate::Effective;

  friend bool operator==(const OpFinding&, const OpFinding&) = default;
};

/// Input facts to seed the analysis with (truncated-input scenarios).
struct AnalyzeOptions {
  std::vector<wire_t> zero_inputs;  // wires pinned to constant 0
  std::vector<wire_t> one_inputs;   // wires pinned to constant 1
};

struct AnalyzeReport {
  wire_t width = 0;
  std::size_t levels = 0;
  std::size_t comparators = 0;

  AnalyzeVerdict verdict = AnalyzeVerdict::Inconclusive;
  /// CertifiedUpToRelabel: relabel_ranks[p] = rank the value at output
  /// position p always has (a permutation). Empty otherwise.
  std::vector<wire_t> relabel_ranks;

  /// Comparators proven Redundant (identity) or AlwaysExchange, in
  /// level order. Effective ops are not listed.
  std::vector<OpFinding> trivial_ops;
  /// Levels with at least one comparator, all of them redundant: the
  /// level provably does nothing.
  std::vector<std::uint32_t> dead_levels;
  /// Slots that are an endpoint of no comparator op anywhere.
  std::vector<wire_t> untouched_slots;

  /// Final-relation stats: proven non-reflexive pairs, out of
  /// width * (width - 1) orientable ones.
  std::size_t relation_pairs = 0;

  /// Exact and relabel-invariant hashes of the final relation state
  /// (OrderRelation::fingerprint / invariant_fingerprint).
  std::pair<std::uint64_t, std::uint64_t> relation_fingerprint{0, 0};
  std::pair<std::uint64_t, std::uint64_t> subsumption_fingerprint{0, 0};

  std::size_t redundant_count() const noexcept;
  std::size_t always_exchange_count() const noexcept;
};

AnalyzeReport analyze(const LevelProgram& prog,
                      const AnalyzeOptions& options = {});
AnalyzeReport analyze(const ComparatorNetwork& net,
                      const AnalyzeOptions& options = {});

/// Redundancy elimination: drops comparators proven Redundant
/// (identity on every input) and rewrites comparators proven
/// AlwaysExchange into Exchange gates (free wiring for the compiled
/// kernel). The result has the same width and depth (levels may become
/// empty) and is pointwise output-equivalent to the input network on
/// EVERY input - including ties, since a proven ordering covers equal
/// values and comparators never swap equals. It is NOT
/// comparison-trace-equivalent: removed comparators no longer collide
/// values (Definition 3.6), so witness replay and collision analyses
/// must keep using the original network.
///
/// The pass steps the same engine analyze() does over the original
/// network, so it also carries analyze()'s verdict, which certify uses
/// without a second analyzer pass.
struct EliminationResult {
  ComparatorNetwork net;
  std::size_t removed = 0;    // comparators dropped (Redundant)
  std::size_t exchanged = 0;  // comparators rewritten to Exchange
  std::vector<OpFinding> findings;
  /// What the final relation proves about the network's outputs, and
  /// for CertifiedUpToRelabel the rank at each output position - as
  /// AnalyzeReport::verdict / relabel_ranks.
  AnalyzeVerdict verdict = AnalyzeVerdict::Inconclusive;
  std::vector<wire_t> relabel_ranks;
};

EliminationResult eliminate_redundant(const ComparatorNetwork& net);

}  // namespace shufflebound
