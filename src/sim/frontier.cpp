#include "sim/frontier.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace shufflebound {

namespace {

/// One reachable partial state plus the minimal input vector reaching
/// it. Both words use GLOBAL slot/wire bit positions; a component only
/// sets bits inside its slot mask. Ordered by (state, min_input) so a
/// sort followed by unique-by-state keeps the minimal input per state.
struct Entry {
  std::uint64_t state;
  std::uint64_t min_input;
};

bool operator<(const Entry& a, const Entry& b) {
  return a.state < b.state ||
         (a.state == b.state && a.min_input < b.min_input);
}

bool same_state(const Entry& a, const Entry& b) { return a.state == b.state; }

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
/// state. Runs before sort_unique, so the sort only sees the unsorted
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

/// Below this size a plain serial sort beats bucketing overhead
/// comfortably.
constexpr std::size_t kBucketedDedupMin = std::size_t{1} << 15;

/// Radix bucket count for large dedups, sized from the detected core
/// topology (a few buckets per core for load balance under skewed
/// state distributions, clamped to [16, 256] and rounded to a power of
/// two) instead of a hard-coded constant. The partition never changes
/// results, only locality and balance.
unsigned dedup_bucket_bits() {
  static const unsigned bits = [] {
    const unsigned cores = std::max(std::thread::hardware_concurrency(), 1u);
    const unsigned buckets = std::bit_ceil(std::clamp(cores * 4, 16u, 256u));
    return static_cast<unsigned>(std::bit_width(buckets)) - 1;
  }();
  return bits;
}

/// Sorts `entries` by (state, min_input) and drops duplicate states,
/// keeping the minimal input of each. Large sets are radix-partitioned
/// by the leading bits of the component's states - a prefix split of
/// the very order being sorted, so concatenating sorted buckets in
/// bucket order is globally sorted and the result is bitwise identical
/// to a flat sort no matter how many buckets there are or whether the
/// per-bucket sorts run serially or on the pool. The split buys dedup
/// locality (each bucket sorts within a fraction of the cache) even
/// without a pool, and is the TSan-visible parallel path with one.
void sort_unique(std::vector<Entry>& entries, std::uint64_t slot_mask,
                 ThreadPool* pool, std::uint64_t& dedup_removed) {
  const std::size_t before = entries.size();
  if (before < kBucketedDedupMin) {
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end(), same_state),
                  entries.end());
    dedup_removed += before - entries.size();
    return;
  }
  const unsigned bucket_bits = dedup_bucket_bits();
  const unsigned hi_bit = static_cast<unsigned>(std::bit_width(slot_mask));
  const unsigned shift = hi_bit > bucket_bits ? hi_bit - bucket_bits : 0;
  const std::size_t buckets = std::size_t{1} << bucket_bits;
  std::vector<std::size_t> offsets(buckets + 1, 0);
  for (const Entry& e : entries) ++offsets[(e.state >> shift) + 1];
  for (std::size_t s = 0; s < buckets; ++s) offsets[s + 1] += offsets[s];
  std::vector<Entry> scratch(before);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Entry& e : entries) scratch[cursor[e.state >> shift]++] = e;
  }
  std::vector<std::size_t> kept(buckets, 0);
  const auto sort_bucket = [&](std::size_t s) {
    const auto first =
        scratch.begin() + static_cast<std::ptrdiff_t>(offsets[s]);
    const auto last =
        scratch.begin() + static_cast<std::ptrdiff_t>(offsets[s + 1]);
    std::sort(first, last);
    kept[s] = static_cast<std::size_t>(
        std::distance(first, std::unique(first, last, same_state)));
  };
  if (pool != nullptr) {
    pool->parallel_for(0, buckets, sort_bucket);
  } else {
    for (std::size_t s = 0; s < buckets; ++s) sort_bucket(s);
  }
  entries.clear();
  for (std::size_t s = 0; s < buckets; ++s) {
    const auto first =
        scratch.begin() + static_cast<std::ptrdiff_t>(offsets[s]);
    entries.insert(entries.end(), first,
                   first + static_cast<std::ptrdiff_t>(kept[s]));
  }
  dedup_removed += before - entries.size();
}

/// Cross product of two components' state sets, OR-ing states and
/// min-inputs (valid and still minimal because the components occupy
/// disjoint bit positions). Returns false - touching nothing - when the
/// product would exceed the budget; the caller reports incompleteness.
/// The product of two duplicate-free sets is duplicate-free, so no
/// dedup is owed here; the level's dedup restores sortedness. Settled
/// buckets on either side are materialized first (a product state is
/// sorted only if both factors were, and the merged component's order
/// interleaves the factors' slots, so the settled representation does
/// not survive a merge); the caller rebuilds dst's sorted table for the
/// widened mask.
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
  const std::uint64_t budget = opts.budget == 0 ? 1 : opts.budget;
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

    // Apply phase: gather this level's ops per component and rewrite
    // every entry. A comparator on 0/1 values only acts when the
    // min-slot holds 1 and the max-slot holds 0 - then it swaps them.
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
      for (Entry& e : comp.active) {
        std::uint64_t s = e.state;
        for (const auto& [mn, mx] : comp_ops) {
          if ((s >> mn & 1ull) > (s >> mx & 1ull))
            s ^= (std::uint64_t{1} << mn) | (std::uint64_t{1} << mx);
        }
        e.state = s;
      }
      report.states_expanded += comp.active.size();
      if (collapse) settle_sorted(comp, report.dedup_removed);
      sort_unique(comp.active, comp.slot_mask, opts.pool,
                  report.dedup_removed);
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
