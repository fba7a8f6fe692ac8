// Executable form of Theorem 4.1 and Corollary 4.1.1.
//
// Iterates Lemma 4.1 over the stages of a (d, l)-iterated reverse delta
// network: after each chunk, the largest surviving set is chosen, pulled
// back to the network's input wires (Lemma 3.3 - trivial here because set
// members' value paths are deterministic, so the driver simply tracks
// their positions), and renormalized via rho (Lemma 3.4) so the next
// chunk again sees only S_0 / M_0 / L_0.
//
// The theorem guarantees |D| >= n / lg^{4d} n; the corollary turns
// |D| >= 2 into a pair of inputs the network cannot both sort.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "adversary/lemma41.hpp"
#include "networks/rdn.hpp"
#include "pattern/input_pattern.hpp"

namespace shufflebound {

struct AdversaryStageStats {
  std::size_t entering = 0;    // |M_0-set| entering this chunk
  std::size_t retained = 0;    // |B| after Lemma 4.1
  std::size_t survivors = 0;   // size of the chosen largest set
  std::size_t set_count = 0;   // t(l)
  std::size_t nonempty_sets = 0;
};

struct AdversaryResult {
  /// Pattern over the network's input wires; only S_0 / M_0 / L_0 occur.
  InputPattern input_pattern;
  /// The final [M_0]-set D: input wires whose values the network provably
  /// never compares pairwise under any refinement of input_pattern.
  std::vector<wire_t> survivors;
  std::vector<AdversaryStageStats> stages;

  /// Theorem 4.1's guaranteed floor n / lg^{4d} n for these parameters
  /// (0 if the bound degenerates).
  double theorem_bound = 0.0;
};

/// Which surviving set to carry into the next chunk. The paper's
/// averaging argument requires Largest (it is what makes the n/lg^{4d}n
/// floor go through); the alternatives exist for the E15 ablation, which
/// measures how load-bearing that choice is.
enum class SetSelection : std::uint8_t {
  Largest,        // the paper's choice
  FirstNonempty,  // smallest index with any wire
  Median,         // middle of the nonempty sets, by index
};

/// Execution options for the adversary pipeline.
struct AdversaryOptions {
  /// k = 0 selects the paper's choice k = lg n (and at least 1).
  std::uint32_t k = 0;
  SetSelection selection = SetSelection::Largest;
  /// Invoked once per RDN level consumed - the cooperative-deadline hook
  /// (throw to abort; the exception propagates out of run_adversary).
  std::function<void()> progress;
};

/// Runs the adversary over all stages of `net`. k = 0 selects the paper's
/// choice k = lg n (and at least 1).
AdversaryResult run_adversary(const IteratedRdn& net, std::uint32_t k = 0,
                              SetSelection selection = SetSelection::Largest);

/// Options form: adds the cooperative-deadline hook.
AdversaryResult run_adversary(const IteratedRdn& net,
                              const AdversaryOptions& options);

/// The theorem's floor n / lg^{4d} n.
double theorem41_bound(wire_t n, std::size_t d);

/// Largest d for which the corollary still guarantees two survivors:
/// d < lg n / (4 lg lg n).
std::size_t corollary_max_stages(wire_t n);

}  // namespace shufflebound
