#include "sim/frontier.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace shufflebound {

namespace {

/// One reachable partial state plus the minimal input vector reaching
/// it. Both words use GLOBAL slot/wire bit positions; a component only
/// sets bits inside its slot mask.
struct Entry {
  std::uint64_t state;
  std::uint64_t min_input;
};

/// Settled-bucket sentinel. Safe: min-input vectors are < 2^48.
constexpr std::uint64_t kUnsettled = UINT64_MAX;

/// One component of the frontier product: the slots some comparator
/// chain has connected, with the set of partial states reachable on
/// them split into two stores:
///
///  * `active` - materialized (state, min_input) entries, the flat
///    layout every state used before collapse_sorted existed;
///  * `settled` - states sorted along the component's output order,
///    collapsed to one min-input word per 0/1 weight (the weight
///    determines the state: `sorted_state[w]` reconstructs it). These
///    are fixed points of order-ascending comparators, so they sit out
///    the apply/dedup churn until an order-descending op forces
///    rematerialization.
///
/// Dead components (absorbed by a merge) have live = false.
struct Component {
  std::uint64_t slot_mask = 0;
  std::vector<Entry> active;
  std::vector<std::uint64_t> settled;       // [w] -> min input / kUnsettled
  std::vector<std::uint64_t> sorted_state;  // [w] -> state sorted along L
  std::uint32_t settled_count = 0;
  bool live = false;

  std::uint64_t total() const noexcept {
    return active.size() + settled_count;
  }
};

/// Rebuilds the component's sorted-state table: slots ordered by output
/// position (the order the final sortedness check reads), weight-w
/// sorted state = 1s on the LAST w slots of that order. The table makes
/// the "is this state a sorted fixed point" test one popcount plus one
/// compare, and doubles as the decoder for settled buckets.
void build_sorted_table(Component& comp,
                        const std::vector<std::uint32_t>& pos_of_slot) {
  std::vector<std::uint32_t> slots;
  for (std::uint64_t m = comp.slot_mask; m != 0; m &= m - 1)
    slots.push_back(static_cast<std::uint32_t>(std::countr_zero(m)));
  std::sort(slots.begin(), slots.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return pos_of_slot[a] < pos_of_slot[b];
            });
  const std::size_t k = slots.size();
  comp.sorted_state.assign(k + 1, 0);
  for (std::size_t w = 1; w <= k; ++w)
    comp.sorted_state[w] =
        comp.sorted_state[w - 1] | (std::uint64_t{1} << slots[k - w]);
  comp.settled.assign(k + 1, kUnsettled);
  comp.settled_count = 0;
}

/// Re-expands every settled bucket into an explicit entry. Called when
/// an order-descending op could act on the sorted states, before a
/// cross product, and before the final streamed check.
void materialize(Component& comp) {
  if (comp.settled_count == 0) return;
  for (std::size_t w = 0; w < comp.settled.size(); ++w) {
    if (comp.settled[w] == kUnsettled) continue;
    comp.active.push_back({comp.sorted_state[w], comp.settled[w]});
    comp.settled[w] = kUnsettled;
  }
  comp.settled_count = 0;
}

/// Moves every sorted fixed point out of `active` into its per-weight
/// bucket, keeping the minimal input per state. A bucket collision is a
/// dedup (two reaching inputs of one state) and is counted as such;
/// distinct sorted states cannot collide because weight determines the
/// state. Runs before dedup, so the hash table only sees the unsorted
/// residue.
void settle_sorted(Component& comp, std::uint64_t& dedup_removed) {
  auto out = comp.active.begin();
  for (const Entry& e : comp.active) {
    const auto w = static_cast<std::size_t>(std::popcount(e.state));
    if (e.state == comp.sorted_state[w]) {
      std::uint64_t& bucket = comp.settled[w];
      if (bucket == kUnsettled) {
        bucket = e.min_input;
        ++comp.settled_count;
      } else {
        if (e.min_input < bucket) bucket = e.min_input;
        ++dedup_removed;
      }
    } else {
      *out++ = e;
    }
  }
  comp.active.erase(out, comp.active.end());
}

/// Applies one level's comparators on a component to every entry. A
/// comparator on 0/1 values only acts when the min slot holds 1 and the
/// max slot holds 0 - then it swaps them. The ops are the outer loop, so
/// each pass is branch-free over independent entries; every entry still
/// sees the ops in level order.
void apply_ops(
    std::vector<Entry>& entries,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ops) {
  for (const auto& [mn, mx] : ops) {
    const std::uint64_t both =
        (std::uint64_t{1} << mn) | (std::uint64_t{1} << mx);
    for (Entry& e : entries) {
      const std::uint64_t fires = (e.state >> mn) & ~(e.state >> mx) & 1u;
      e.state ^= both & (0 - fires);
    }
  }
}

/// Empty slot of the dedup index table.
constexpr std::uint32_t kEmptySlot = UINT32_MAX;

/// Drops duplicate states from `entries` in place, keeping the minimal
/// input of each. Survivors keep their first-seen order: dedup is a set
/// operation and the witness a minimum, so no report field depends on
/// entry order. `table` indexes the compacted prefix by the high bits of
/// a multiplicative hash of the state (linear probing over a power-of-two
/// capacity of at least twice the set); the caller owns it so it is
/// allocated once per frontier call and reused by every level.
void dedup(std::vector<Entry>& entries, std::vector<std::uint32_t>& table,
           std::uint64_t& dedup_removed) {
  const std::size_t size = entries.size();
  if (size < 2) return;
  const std::size_t capacity = std::bit_ceil(2 * size);
  const int shift = 64 - std::countr_zero(capacity);
  if (table.size() < capacity) table.resize(capacity);
  std::fill_n(table.begin(), capacity, kEmptySlot);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const Entry e = entries[i];
    auto slot =
        static_cast<std::size_t>((e.state * 0x9E3779B97F4A7C15ull) >> shift);
    for (;; slot = (slot + 1) & (capacity - 1)) {
      const std::uint32_t at = table[slot];
      if (at == kEmptySlot) {
        table[slot] = static_cast<std::uint32_t>(kept);
        entries[kept++] = e;
        break;
      }
      if (entries[at].state == e.state) {
        entries[at].min_input = std::min(entries[at].min_input, e.min_input);
        break;
      }
    }
  }
  dedup_removed += size - kept;
  entries.resize(kept);
}

/// Cross product of two components' state sets, OR-ing states and
/// min-inputs (valid and still minimal because the components occupy
/// disjoint bit positions). Returns false - touching nothing - when the
/// product would exceed the budget; the caller reports incompleteness.
/// The product of two duplicate-free sets is duplicate-free, so no
/// dedup is owed here. Settled buckets on either side are materialized
/// first (a product state is sorted only if both factors were, and the
/// merged component's order interleaves the factors' slots, so the
/// settled representation does not survive a merge); the caller
/// rebuilds dst's sorted table for the widened mask.
bool merge_into(Component& dst, Component& src, std::uint64_t budget,
                std::uint64_t& states_expanded) {
  const std::uint64_t a = dst.total();
  const std::uint64_t b = src.total();
  if (b != 0 && a > budget / b) return false;
  materialize(dst);
  materialize(src);
  std::vector<Entry> product;
  product.reserve(static_cast<std::size_t>(a * b));
  for (const Entry& ea : dst.active)
    for (const Entry& eb : src.active)
      product.push_back(
          {ea.state | eb.state, ea.min_input | eb.min_input});
  states_expanded += product.size();
  dst.active = std::move(product);
  dst.slot_mask |= src.slot_mask;
  src = Component{};
  return true;
}

}  // namespace

FrontierReport frontier_zero_one_check(const CompiledNetwork& net,
                                       const FrontierOptions& opts) {
  const wire_t n = net.width();
  if (n > kFrontierWidthCap)
    throw std::invalid_argument(
        "frontier_zero_one_check: n=" + std::to_string(n) +
        " exceeds the frontier engine cap (n <= " +
        std::to_string(kFrontierWidthCap) + ")");
  SB_OBS_SPAN("kernel", "frontier_check");
  SB_OBS_COUNT("kernel.frontier_runs", 1);

  FrontierReport report;
  if (n == 0) {
    report.completed = true;
    report.sorts_all = true;
    return report;
  }
  // Dedup indexes entries with 32-bit words, so no set may reach
  // kEmptySlot entries whatever the budget asks for.
  const std::uint64_t budget =
      std::clamp<std::uint64_t>(opts.budget, 1, kEmptySlot - 1);
  const bool collapse = opts.collapse_sorted;

  const std::span<const wire_t> order = net.output_order();
  // pos_of_slot[s] = output position of slot s: the order along which
  // "sorted" is judged, both for settled fixed points and at the end.
  std::vector<std::uint32_t> pos_of_slot(n);
  for (wire_t p = 0; p < n; ++p) pos_of_slot[order[p]] = p;

  // The full 2^n input cube as a product of n independent single-slot
  // components: slot w starts holding wire w's input, so state bit w and
  // min-input bit w coincide at this point and min-input words stay
  // wire-indexed forever after (ops rewrite states, never provenance).
  // Both single-slot states are trivially sorted, so under the
  // collapsed layout the whole cube starts settled: 2n bucket words,
  // zero materialized entries.
  std::vector<Component> comps(n);
  std::vector<std::uint32_t> comp_of(n);
  for (wire_t w = 0; w < n; ++w) {
    const std::uint64_t bit = std::uint64_t{1} << w;
    comps[w].slot_mask = bit;
    comps[w].live = true;
    comp_of[w] = w;
    build_sorted_table(comps[w], pos_of_slot);
    if (collapse) {
      comps[w].settled[0] = 0;
      comps[w].settled[1] = bit;
      comps[w].settled_count = 2;
    } else {
      comps[w].active = {{0, 0}, {bit, bit}};
    }
  }

  const auto finish_stats = [&report] {
    SB_OBS_COUNT("kernel.frontier_states_expanded", report.states_expanded);
    SB_OBS_COUNT("kernel.frontier_dedup_removed", report.dedup_removed);
    SB_OBS_GAUGE("kernel.frontier_peak_states", report.peak_states);
    SB_OBS_GAUGE("kernel.frontier_peak_entries", report.peak_entries);
    SB_OBS_GAUGE("kernel.frontier_settled_peak", report.settled_peak);
  };
  const auto incomplete = [&]() -> FrontierReport {
    SB_OBS_COUNT("kernel.frontier_incomplete", 1);
    finish_stats();
    return report;
  };

  const std::span<const std::uint32_t> mins = net.min_slots();
  const std::span<const std::uint32_t> maxs = net.max_slots();
  const std::span<const std::uint32_t> offsets = net.level_offsets();
  const std::size_t levels = net.level_count();
  std::vector<std::uint32_t> touched;
  std::vector<char> is_touched(n, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> comp_ops;
  std::vector<std::uint32_t> dedup_table;

  for (std::size_t level = 0; level < levels; ++level) {
    if (opts.progress) opts.progress();
    const std::size_t lo = offsets[level];
    const std::size_t hi = offsets[level + 1];

    // Merge phase: every op must see both endpoints in one component
    // before states move. Each cross product is budget-checked before
    // any allocation, so an over-budget abort costs nothing.
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t keep = comp_of[mins[i]];
      const std::uint32_t drop = comp_of[maxs[i]];
      if (keep == drop) continue;
      if (!merge_into(comps[keep], comps[drop], budget,
                      report.states_expanded))
        return incomplete();
      build_sorted_table(comps[keep], pos_of_slot);
      for (wire_t s = 0; s < n; ++s)
        if (comp_of[s] == drop) comp_of[s] = keep;
    }

    // Apply phase: gather this level's ops per component, rewrite every
    // entry, then settle sorted fixed points and drop duplicates.
    touched.clear();
    std::fill(is_touched.begin(), is_touched.end(), 0);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t c = comp_of[mins[i]];
      if (is_touched[c] == 0) {
        is_touched[c] = 1;
        touched.push_back(c);
      }
    }
    for (const std::uint32_t c : touched) {
      Component& comp = comps[c];
      comp_ops.clear();
      for (std::size_t i = lo; i < hi; ++i)
        if (comp_of[mins[i]] == c) comp_ops.emplace_back(mins[i], maxs[i]);
      if (comp.settled_count != 0) {
        // Settled states are fixed points of order-ascending ops (the
        // min slot already precedes the max slot, so the comparator
        // never fires on a sorted state). Only an order-DESCENDING op
        // can disturb them; rematerialize exactly then.
        const bool ascending_only = std::all_of(
            comp_ops.begin(), comp_ops.end(), [&](const auto& op) {
              return pos_of_slot[op.first] < pos_of_slot[op.second];
            });
        if (!ascending_only) materialize(comp);
      }
      apply_ops(comp.active, comp_ops);
      report.states_expanded += comp.active.size();
      if (collapse) settle_sorted(comp, report.dedup_removed);
      dedup(comp.active, dedup_table, report.dedup_removed);
    }

    std::uint64_t live_entries = 0;
    std::uint64_t live_settled = 0;
    for (const Component& comp : comps) {
      if (!comp.live) continue;
      live_entries += comp.active.size();
      live_settled += comp.settled_count;
    }
    report.peak_states =
        std::max(report.peak_states, live_entries + live_settled);
    report.peak_entries = std::max(report.peak_entries, live_entries);
    report.settled_peak = std::max(report.settled_peak, live_settled);
    ++report.levels_processed;
  }

  if (opts.progress) opts.progress();

  // Final check: the network sorts iff every state in the FULL product
  // of the remaining components reads sorted through output_order().
  // Predict the product size first - wires no comparator ever touched
  // contribute a factor of 2 each, and e.g. an empty network would
  // otherwise ask for all 2^n states right here. Within budget, the
  // product is STREAMED combination by combination (an odometer over
  // the per-component views with a running OR prefix), never
  // materialized: the budget bounds the time of this scan, while peak
  // resident entries stay at the per-level peak.
  std::uint64_t predicted = 1;
  for (const Component& comp : comps) {
    if (!comp.live) continue;
    const std::uint64_t size = comp.total();
    if (size != 0 && predicted > budget / size) return incomplete();
    predicted *= size;
  }
  report.peak_states = std::max(report.peak_states, predicted);

  std::vector<const std::vector<Entry>*> views;
  for (Component& comp : comps) {
    if (!comp.live) continue;
    materialize(comp);
    views.push_back(&comp.active);
  }
  // Largest view innermost: the odometer recomputes one prefix word per
  // combination there, touching the outer digits only on carries.
  std::sort(views.begin(), views.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });

  const std::size_t m = views.size();
  std::vector<std::size_t> idx(m, 0);
  std::vector<Entry> prefix(m + 1, Entry{0, 0});
  std::uint64_t min_failing = UINT64_MAX;
  std::size_t depth = 0;
  for (;;) {
    while (depth < m) {
      const Entry& pick = (*views[depth])[idx[depth]];
      prefix[depth + 1] = {prefix[depth].state | pick.state,
                           prefix[depth].min_input | pick.min_input};
      ++depth;
    }
    const Entry& full = prefix[m];
    for (wire_t p = 0; p + 1 < n; ++p) {
      // Unsorted = a 1 at some output position followed by a 0.
      if ((full.state >> order[p] & 1ull) >
          (full.state >> order[p + 1] & 1ull)) {
        if (full.min_input < min_failing) min_failing = full.min_input;
        break;
      }
    }
    std::size_t d = m;
    while (d > 0 && ++idx[d - 1] == views[d - 1]->size()) {
      idx[d - 1] = 0;
      --d;
    }
    if (d == 0) break;
    depth = d - 1;
  }

  report.completed = true;
  report.sorts_all = min_failing == UINT64_MAX;
  if (!report.sorts_all) report.failing_vector = min_failing;
  finish_stats();
  return report;
}

}  // namespace shufflebound
