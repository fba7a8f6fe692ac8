// Frontier-based 0-1 certification: reachable-set propagation that
// breaks the 2^n wall for structured networks.
//
// The wide-lane sweep (sim/bitparallel.hpp) enumerates all 2^n 0-1 test
// vectors, which caps it at n <= 30. But a comparator network collapses
// its reachable state space as levels apply: a sorting network ends at
// the n+1 sorted vectors, and structured families (bitonic, odd-even
// mergesort, shuffle-compiled sorters) stay collapsed THROUGHOUT -
// before the final merge of a 2^5-wire bitonic sorter the reachable set
// is 33 x 33 = 1089 states, not 2^32. This engine propagates the SET of
// reachable 0-1 vectors instead of the vectors themselves, the same
// state-set technique behind modern sorting-network search (Bundala &
// Zavodny; Codish et al.).
//
// Two ideas make the initial set (all 2^n inputs) representable:
//
//  * Independence tracking. Wires that no comparator has yet connected
//    are statistically independent, so the frontier is stored as a
//    PRODUCT of per-component sets: a union-find over compiled slots,
//    each component owning an explicit vector of partial states
//    (bits at the component's global slot positions). The run starts
//    with n singleton components of two states each - total size 2n,
//    product 2^n - and components merge (cross product, budget-checked
//    BEFORE allocation) only when a comparator spans them.
//  * Level-synchronous dedup. After each level's ops are applied to a
//    component, duplicate states are dropped by hashing (open
//    addressing over a table the call owns and reuses), so the set
//    never carries a state twice and a level costs time in proportion
//    to its states.
//
// Memory layout (the part that sets the certifiable-n ceiling): a state
// that is SORTED along its component's output order is a fixed point of
// every order-ascending comparator - exactly the ops structured sorters
// apply - and a component has at most k+1 such states, one per 0/1
// weight. With FrontierOptions::collapse_sorted (the default) those
// fixed points leave the entry vectors and live in per-weight min-input
// buckets (8 bytes each), rematerializing only if a later op could
// disturb them (an order-descending comparator on the component). The
// final full-product check streams the cross product combination by
// combination instead of materializing it. Both cut peak resident
// entries (FrontierReport::peak_entries) without changing any verdict
// or witness bit.
//
// Witness determinism: every entry carries the MINIMAL input vector
// reaching its state. Dedup keeps the minimum over merged entries, and
// a cross product sums minima (component inputs occupy disjoint bits),
// so when the final frontier holds an unsorted state, the minimum over
// bad states of their min-inputs is exactly the minimal failing 0-1
// input - bit for bit the vector the wide-lane sweep reports.
// tests/test_frontier.cpp holds all engines to that agreement.
//
// The hybrid dispatcher (certify-capable zero_one_check overloads) that
// picks between this engine and the sweep lives in sim/bitparallel.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sim/compiled_net.hpp"

namespace shufflebound {

/// Widest network the frontier engine accepts: states and min-input
/// provenance are packed into one 64-bit word each, and the documented
/// contract stops at 48 so budget arithmetic stays far from overflow.
inline constexpr wire_t kFrontierWidthCap = 48;

/// Default cap on any single materialized state set (a component after a
/// merge or a level). ~2^26 entries = 1 GiB of (state, min_input) pairs
/// plus a 512 MiB dedup index at peak; structured networks stay orders
/// of magnitude below it.
inline constexpr std::uint64_t kDefaultFrontierBudget = std::uint64_t{1}
                                                        << 26;

struct FrontierOptions {
  /// Abandon the pass (completed = false) as soon as any component's
  /// state set would exceed this many entries. Checked before the
  /// allocation, so an over-budget abort is cheap.
  std::uint64_t budget = kDefaultFrontierBudget;
  /// Invoked once per level (and once before the final check) - the
  /// hook cooperative deadlines use; exceptions propagate to the caller.
  std::function<void()> progress;
  /// Collapse sorted fixed-point states into per-weight min-input
  /// buckets (see the header comment). Off reproduces the flat layout -
  /// the differential suites and the E23 layout ablation use both.
  bool collapse_sorted = true;
};

struct FrontierReport {
  /// False when the budget aborted the pass; every other field except
  /// the stats is then meaningless and the caller must fall back.
  bool completed = false;
  bool sorts_all = false;
  /// Minimal failing 0-1 input vector, identical to the sweep's.
  std::optional<std::uint64_t> failing_vector;
  /// Peak of the summed live-component STATE counts (materialized
  /// entries + settled per-weight buckets) after any level, and of the
  /// predicted final-product size - how many states the engine had to
  /// account for at once.
  std::uint64_t peak_states = 0;
  /// Peak of materialized 16-byte Entry records resident at once - the
  /// memory-pressure metric the collapsed layout lowers (E23 gates the
  /// reduction). Equal to the per-level part of peak_states when
  /// collapse_sorted is off; the streamed final product is never
  /// materialized in either mode.
  std::uint64_t peak_entries = 0;
  /// Peak count of states held in settled per-weight buckets.
  std::uint64_t settled_peak = 0;
  /// Entries written across all levels (merge products + op passes).
  std::uint64_t states_expanded = 0;
  /// Entries removed by per-level dedup (the collapse the engine rides).
  std::uint64_t dedup_removed = 0;
  std::size_t levels_processed = 0;
};

/// Runs the frontier pass over a compiled network (any model compiles;
/// output order is respected, matching the sweep's sortedness check).
/// Throws std::invalid_argument when net.width() > kFrontierWidthCap.
FrontierReport frontier_zero_one_check(const CompiledNetwork& net,
                                       const FrontierOptions& opts = {});

}  // namespace shufflebound
