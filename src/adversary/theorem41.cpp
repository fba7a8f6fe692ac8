#include "adversary/theorem41.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/bits.hpp"

namespace shufflebound {

double theorem41_bound(wire_t n, std::size_t d) {
  const double lg = std::log2(static_cast<double>(n));
  return static_cast<double>(n) / std::pow(lg, 4.0 * static_cast<double>(d));
}

std::size_t corollary_max_stages(wire_t n) {
  const double lg = std::log2(static_cast<double>(n));
  const double lglg = std::log2(lg);
  if (lglg <= 0) return 0;
  const double limit = lg / (4.0 * lglg);
  // d must satisfy d < limit strictly.
  auto d = static_cast<std::size_t>(limit);
  if (static_cast<double>(d) >= limit && d > 0) --d;
  return d;
}

namespace {

std::size_t select_set(const std::vector<std::vector<wire_t>>& sets,
                       SetSelection selection) {
  std::size_t largest = 0;
  std::vector<std::size_t> nonempty;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (!sets[i].empty()) nonempty.push_back(i);
    if (sets[i].size() > sets[largest].size()) largest = i;
  }
  switch (selection) {
    case SetSelection::Largest:
      return largest;
    case SetSelection::FirstNonempty:
      return nonempty.empty() ? largest : nonempty.front();
    case SetSelection::Median:
      return nonempty.empty() ? largest : nonempty[nonempty.size() / 2];
  }
  return largest;
}

}  // namespace

AdversaryResult run_adversary(const IteratedRdn& net, std::uint32_t k,
                              SetSelection selection) {
  AdversaryOptions options;
  options.k = k;
  options.selection = selection;
  return run_adversary(net, options);
}

AdversaryResult run_adversary(const IteratedRdn& net,
                              const AdversaryOptions& options) {
  const wire_t n = net.width();
  if (n < 2) throw std::invalid_argument("run_adversary: width must be >= 2");
  std::uint32_t k = options.k;
  if (k == 0) k = std::max<std::uint32_t>(1, log2_exact(n));
  const SetSelection selection = options.selection;
  SB_OBS_SPAN("refuter", "adversary");
  SB_OBS_TIME_COUNT("refuter.phase_us.adversary");
  SB_OBS_COUNT("refuter.adversary_runs", 1);
  SB_OBS_COUNT("refuter.adversary_stages", net.stage_count());

  AdversaryResult result;
  result.input_pattern = InputPattern(n, sym_M(0));

  // Driver state at the current cut (between stages):
  //   cut_pattern: symbols per slot, only S_0 / M_0 / L_0;
  //   survivor_at_slot: the original input wire whose value occupies the
  //   slot, for slots in the current [M_0]-set (npos elsewhere).
  constexpr wire_t npos = static_cast<wire_t>(-1);
  InputPattern cut_pattern(n, sym_M(0));
  std::vector<wire_t> survivor_at_slot(n);
  for (wire_t s = 0; s < n; ++s) survivor_at_slot[s] = s;

  std::vector<PatternSymbol> scratch(n);
  std::vector<wire_t> scratch_w(n);

  for (const IteratedRdn::Stage& stage : net.stages()) {
    // Free permutation in front of the chunk: slot j -> slot pre(j).
    {
      auto& symbols = cut_pattern.mutable_symbols();
      for (wire_t s = 0; s < n; ++s) {
        scratch[stage.pre[s]] = symbols[s];
        scratch_w[stage.pre[s]] = survivor_at_slot[s];
      }
      symbols.swap(scratch);
      survivor_at_slot.swap(scratch_w);
    }

    std::optional<Lemma41Result> lemma_result;
    {
      SB_OBS_SPAN("refuter", "lemma41_refine");
      SB_OBS_TIME_COUNT("refuter.phase_us.lemma41_refine");
      // Inlined lemma41() so the driver can carry the per-level progress
      // hook (cooperative deadline). IteratedRdn::add_stage validated the
      // chunk against its tree, so it is not validated again here.
      Lemma41Driver driver(stage.chunk.tree, std::move(cut_pattern), k);
      if (options.progress) driver.set_progress(options.progress);
      for (const Level& level : stage.chunk.net.levels())
        driver.feed_level(level);
      lemma_result = std::move(driver).finish();
    }
    Lemma41Result& lemma = *lemma_result;

    SB_OBS_SPAN("refuter", "pattern_refine");
    SB_OBS_TIME_COUNT("refuter.phase_us.pattern_refine");
    // Choose the set to carry forward (the paper's averaging step picks
    // the largest; alternatives are ablation-only).
    const std::size_t best = select_set(lemma.sets, selection);
    const std::vector<wire_t>& chosen = lemma.sets[best];
    const PatternSymbol chosen_symbol = sym_M(static_cast<std::uint32_t>(best));

    AdversaryStageStats stats;
    stats.entering = lemma.stats.initial_m0;
    stats.retained = lemma.stats.retained;
    stats.survivors = chosen.size();
    stats.set_count = lemma.stats.set_count;
    stats.nonempty_sets = lemma.stats.nonempty_sets;
    result.stages.push_back(stats);

    // Pull the refinement back to the network's input wires (Lemma 3.3)
    // and renormalize with rho (Lemma 3.4): the chosen set's wires become
    // M_0; every other previous survivor becomes S_0 or L_0 according to
    // its refined symbol's order relative to the chosen one.
    std::vector<wire_t> next_survivor_at_slot(n, npos);
    for (wire_t slot = 0; slot < n; ++slot) {
      const wire_t origin = survivor_at_slot[slot];
      if (origin == npos) continue;
      const PatternSymbol refined = lemma.refined[slot];
      if (refined == chosen_symbol) {
        result.input_pattern.set(origin, sym_M(0));
        next_survivor_at_slot[lemma.final_position[slot]] = origin;
      } else if (refined < chosen_symbol) {
        result.input_pattern.set(origin, sym_S(0));
      } else {
        result.input_pattern.set(origin, sym_L(0));
      }
    }
    survivor_at_slot.swap(next_survivor_at_slot);

    // rho applied to the chunk's output pattern gives the next cut pattern.
    for (PatternSymbol& out : lemma.output.mutable_symbols()) {
      if (out == chosen_symbol) {
        out = sym_M(0);
      } else if (out < chosen_symbol) {
        out = sym_S(0);
      } else {
        out = sym_L(0);
      }
    }
    cut_pattern = std::move(lemma.output);
  }

  result.survivors = result.input_pattern.set_of(sym_M(0));
  result.theorem_bound = theorem41_bound(n, net.stage_count());
  return result;
}

}  // namespace shufflebound
