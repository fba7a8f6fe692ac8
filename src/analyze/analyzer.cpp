#include "analyze/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace shufflebound {

namespace {

// ---------------------------------------------------------------------------
// Cyclic-bitonic segment facts: the second component of the analyzer's
// reduced-product domain.
//
// The pairwise relation is provably too weak for bitonic sorters: the
// bitonic merge is only correct because its input halves form a bitonic
// sequence, and "bitonic" is a disjunctive global shape no conjunction
// of v_x <= v_y facts can express. So the analyzer additionally tracks
// facts of the form "the values at slots (s_0, ..., s_{k-1}) form a
// cyclic-bitonic sequence on every input" (a rotation of an ascending-
// then-descending run - Batcher's definition, over arbitrary ordered
// values, not just 0/1).
//
// Three sound rules drive the facts (docs/analyze.md):
//  * Seed: if a level's ops pair u_j with v_j such that, in some order
//    sigma, the u's are a proven ascending chain and the v's a proven
//    descending chain, then (u_0..u_{m-1}, v_0..v_{m-1}) is cyclic-
//    bitonic and this level is exactly its antipodal butterfly.
//  * Split (Batcher's lemma): a complete antipodal butterfly over a
//    cyclic-bitonic fact - ops pairing position i with i+m for all i -
//    yields min(pair_i) values that are again cyclic-bitonic, likewise
//    the max values, and EVERY min is <= EVERY max. The all-pairs
//    consequence is injected back into the pairwise relation (with a
//    transitive re-closure); the two halves become new facts. Which
//    SLOT receives min vs max is irrelevant - the lemma is about the
//    values - so ascending and descending merge blocks work alike.
//  * Kill: any other touch of a fact's slots invalidates it.
//
// Facts live on pairwise-disjoint slots (survivors are untouched by the
// level, new halves are endpoints of its disjoint ops), so all of them
// fit in one flat slot array of at most `width` entries.

// Antipodal-butterfly match of the fact `cycle` against a level.
// op_of_slot maps slot -> op index in `ops` (or kNoOp). On success,
// appends the matched op indices (in fact-position order 0..m-1) to
// `pairs`; on failure leaves `pairs` as it was.
constexpr std::size_t kNoOp = std::size_t(-1);

bool match_butterfly(std::span<const wire_t> cycle,
                     std::span<const LevelOp> ops,
                     std::span<const std::size_t> op_of_slot,
                     std::vector<std::size_t>& pairs) {
  const std::size_t len = cycle.size();
  if (len < 2 || len % 2 != 0) return false;
  const std::size_t m = len / 2;
  const std::size_t start = pairs.size();
  for (std::size_t i = 0; i < m; ++i) {
    const wire_t a = cycle[i];
    const wire_t b = cycle[i + m];
    const std::size_t oi = op_of_slot[a];
    const bool covers = oi != kNoOp && oi == op_of_slot[b] &&
                        ((ops[oi].min_slot == a && ops[oi].max_slot == b) ||
                         (ops[oi].min_slot == b && ops[oi].max_slot == a));
    if (!covers) {
      pairs.resize(start);
      return false;
    }
    pairs.push_back(oi);
  }
  return true;
}

bool has(std::span<const std::uint64_t> row, wire_t s) noexcept {
  return (row[s / 64] >> (s % 64)) & 1u;
}

// A flat list of runs: run r is items[ends[r-1], ends[r]).
template <typename T>
struct Runs {
  std::vector<T> items;
  std::vector<std::uint32_t> ends;

  std::size_t size() const noexcept { return ends.size(); }
  std::span<const T> operator[](std::size_t r) const noexcept {
    const std::uint32_t begin = r == 0 ? 0 : ends[r - 1];
    return {items.data() + begin, ends[r] - begin};
  }
  void close() { ends.push_back(static_cast<std::uint32_t>(items.size())); }
  void clear() noexcept {
    items.clear();
    ends.clear();
  }
  void reserve(std::size_t count) {
    items.reserve(count);
    ends.reserve(count);
  }
};

// The per-network analysis engine shared by analyze() and
// eliminate_redundant(): the pairwise relation plus the active segment
// facts, advanced one level at a time. Every buffer is sized for the
// width up front, so stepping a level allocates nothing once the
// relation's scratch exists (first level).
class RelationEngine {
 public:
  explicit RelationEngine(wire_t width)
      : relation_(width),
        op_of_slot_(width, kNoOp),
        pool_of_u_(width, kNoOp),
        pool_of_v_(width, kNoOp),
        unvisited_u_(BitMatrix::words_per_row(width), 0),
        unvisited_v_(BitMatrix::words_per_row(width), 0) {
    const std::size_t max_ops = width / 2;
    facts_.reserve(width);
    next_facts_.reserve(width);
    splits_.reserve(max_ops);
    for (auto* v : {&low_, &high_}) v->reserve(max_ops);
    for (auto* v : {&consumed_, &hit_}) v->reserve(max_ops);
    for (auto* v : {&pool_, &rest_, &component_, &stack_, &members_,
                    &component_start_, &cursor_, &preds_, &order_})
      v->reserve(max_ops + 1);
  }

  OrderRelation& relation() noexcept { return relation_; }

  /// Advances by one level; `fates` receives the pre-level verdicts.
  void step(std::span<const LevelOp> ops, std::vector<OpFate>& fates) {
    fates.assign(ops.size(), OpFate::Effective);
    std::fill(op_of_slot_.begin(), op_of_slot_.end(), kNoOp);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      op_of_slot_[ops[i].min_slot] = i;
      op_of_slot_[ops[i].max_slot] = i;
    }

    // Phase 1: match active facts against this level (purely
    // structural), remember splits to perform after the transfer.
    // Untouched facts survive; touched facts that are not a clean
    // butterfly die.
    next_facts_.clear();
    splits_.clear();
    for (std::size_t f = 0; f < facts_.size(); ++f) {
      const auto cycle = facts_[f];
      bool touched = false;
      for (wire_t s : cycle) touched |= (op_of_slot_[s] != kNoOp);
      if (!touched) {
        next_facts_.items.insert(next_facts_.items.end(), cycle.begin(),
                                 cycle.end());
        next_facts_.close();
      } else if (match_butterfly(cycle, ops, op_of_slot_, splits_.items)) {
        splits_.close();
      }
    }
    consumed_.assign(ops.size(), 0);
    for (std::size_t oi : splits_.items) consumed_[oi] = 1;

    // Phase 2: seed new facts from proven chains (pre-level relation).
    seed_blocks(ops);

    // Phase 3: pairwise transfer (also judges the fates pre-level).
    relation_.apply_level(ops, fates.data());

    // Phase 4: apply Batcher's split lemma for every matched or seeded
    // butterfly - cross facts into the relation, halves become facts.
    if (splits_.size() != 0) {
      low_.clear();
      high_.clear();
      for (std::size_t oi : splits_.items) {
        low_.push_back(ops[oi].min_slot);
        high_.push_back(ops[oi].max_slot);
      }
      relation_.add_blocks(low_, high_, splits_.ends);
      std::uint32_t begin = 0;
      for (const std::uint32_t end : splits_.ends) {
        // Only even-length halves can meet another antipodal butterfly;
        // length-2 halves are fully covered by the pairwise relation.
        const std::uint32_t len = end - begin;
        if (len >= 4 && len % 2 == 0) {
          for (const auto* half : {&low_, &high_}) {
            next_facts_.items.insert(next_facts_.items.end(),
                                     half->begin() + begin,
                                     half->begin() + end);
            next_facts_.close();
          }
        }
        begin = end;
      }
    }
    std::swap(facts_, next_facts_);
  }

 private:
  // Groups the unconsumed ops of a level into candidate merge blocks
  // and seeds a cyclic-bitonic fact per block that admits a chain
  // order. Pairs j and j' are chain-comparable under an endpoint
  // assignment (u, v) iff u_j <= u_j' and v_j' <= v_j; a block seeds
  // when one global assignment (u = min side or u = max side) makes
  // its comparability component a total order.
  void seed_blocks(std::span<const LevelOp> ops) {
    pool_.clear();
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (consumed_[i] == 0) pool_.push_back(i);
    if (pool_.size() < 2) return;

    for (int flip = 0; flip < 2; ++flip) {
      // Endpoint assignment: u = min side (flip 0) or max side (flip 1).
      auto u_of = [&](std::size_t i) {
        return flip == 0 ? ops[i].min_slot : ops[i].max_slot;
      };
      auto v_of = [&](std::size_t i) {
        return flip == 0 ? ops[i].max_slot : ops[i].min_slot;
      };
      auto before = [&](std::size_t i, std::size_t j) {
        return relation_.leq(u_of(i), u_of(j)) &&
               relation_.leq(v_of(j), v_of(i));
      };

      // Connected components of the comparability graph, numbered in
      // order of their first pool member. before(x, y) needs u_y in
      // up[u_x] and v_y in down[v_x]; before(y, x) needs u_y in
      // down[u_x] and v_y in up[v_x]. For each, the search walks the
      // unvisited pool ops on the side with fewer of them (u- or
      // v-slots) and tests the other side bit by bit.
      for (std::size_t p = 0; p < pool_.size(); ++p) {
        const wire_t u = u_of(pool_[p]);
        const wire_t v = v_of(pool_[p]);
        pool_of_u_[u] = p;
        pool_of_v_[v] = p;
        unvisited_u_[u / 64] |= std::uint64_t{1} << (u % 64);
        unvisited_v_[v / 64] |= std::uint64_t{1} << (v % 64);
      }
      component_.assign(pool_.size(), kNoOp);
      std::size_t component_count = 0;
      const auto visit = [&](std::size_t p) {
        const wire_t u = u_of(pool_[p]);
        const wire_t v = v_of(pool_[p]);
        component_[p] = component_count;
        unvisited_u_[u / 64] &= ~(std::uint64_t{1} << (u % 64));
        unvisited_v_[v / 64] &= ~(std::uint64_t{1} << (v % 64));
        stack_.push_back(p);
      };
      // Visits every unvisited op y with u_y in u_set and v_y in v_set.
      const auto link = [&](std::span<const std::uint64_t> u_set,
                            std::span<const std::uint64_t> v_set) {
        std::size_t u_count = 0;
        std::size_t v_count = 0;
        for (std::size_t w = 0; w < u_set.size(); ++w) {
          u_count += std::size_t(std::popcount(u_set[w] & unvisited_u_[w]));
          v_count += std::size_t(std::popcount(v_set[w] & unvisited_v_[w]));
        }
        const bool by_u = u_count <= v_count;
        const auto walk = by_u ? u_set : v_set;
        const auto test = by_u ? v_set : u_set;
        const auto& unvisited = by_u ? unvisited_u_ : unvisited_v_;
        const auto& pool_of = by_u ? pool_of_u_ : pool_of_v_;
        for (std::size_t w = 0; w < walk.size(); ++w) {
          for (std::uint64_t bits = walk[w] & unvisited[w]; bits != 0;
               bits &= bits - 1) {
            const std::size_t y =
                pool_of[w * 64 + std::size_t(std::countr_zero(bits))];
            if (has(test, by_u ? v_of(pool_[y]) : u_of(pool_[y]))) visit(y);
          }
        }
      };
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (component_[i] != kNoOp) continue;
        visit(i);
        while (!stack_.empty()) {
          const std::size_t x = stack_.back();
          stack_.pop_back();
          const wire_t ux = u_of(pool_[x]);
          const wire_t vx = v_of(pool_[x]);
          link(relation_.up_set(ux), relation_.down_set(vx));
          link(relation_.down_set(ux), relation_.up_set(vx));
        }
        ++component_count;
      }
      // Every pool op was visited: unvisited_u_ / unvisited_v_ are all
      // zero again.

      // Each component's members, in pool order, grouped in one pass.
      component_start_.assign(component_count + 1, 0);
      for (std::size_t c : component_) ++component_start_[c + 1];
      for (std::size_t c = 0; c < component_count; ++c)
        component_start_[c + 1] += component_start_[c];
      cursor_.assign(component_start_.begin(), component_start_.end() - 1);
      members_.resize(pool_.size());
      for (std::size_t i = 0; i < pool_.size(); ++i)
        members_[cursor_[component_[i]]++] = pool_[i];

      // Ops seeded under one assignment are out of the pool for the
      // other (a block matches under exactly one in practice).
      rest_.clear();
      for (std::size_t c = 0; c < component_count; ++c) {
        const std::span<const std::size_t> block(
            members_.data() + component_start_[c],
            component_start_[c + 1] - component_start_[c]);
        if (block.size() >= 2 && seed_chain(block, before)) continue;
        rest_.insert(rest_.end(), block.begin(), block.end());
      }
      std::sort(rest_.begin(), rest_.end());
      std::swap(pool_, rest_);
      if (pool_.size() < 2) break;
    }
  }

  // Total-order check and chain sort by predecessor count. On success
  // the block, in chain order, is recorded as a split: the level is
  // this seeded fact's own antipodal butterfly.
  template <typename Before>
  bool seed_chain(std::span<const std::size_t> block, const Before& before) {
    preds_.assign(block.size(), 0);
    for (std::size_t x = 0; x < block.size(); ++x) {
      for (std::size_t y = x + 1; y < block.size(); ++y) {
        const bool xy = before(block[x], block[y]);
        const bool yx = before(block[y], block[x]);
        if (!xy && !yx) return false;
        if (xy) ++preds_[y];
        if (yx) ++preds_[x];
      }
    }
    hit_.assign(block.size(), 0);
    order_.resize(block.size());
    for (std::size_t x = 0; x < block.size(); ++x) {
      if (preds_[x] >= block.size() || hit_[preds_[x]] != 0) return false;
      hit_[preds_[x]] = 1;
      order_[preds_[x]] = block[x];
    }
    splits_.items.insert(splits_.items.end(), order_.begin(), order_.end());
    splits_.close();
    return true;
  }

  OrderRelation relation_;
  Runs<wire_t> facts_;          // active cyclic-bitonic facts
  Runs<wire_t> next_facts_;     // the facts after this level
  Runs<std::size_t> splits_;    // butterflies: op indices, pair order
  std::vector<wire_t> low_;     // each split op's min slot
  std::vector<wire_t> high_;    // each split op's max slot
  std::vector<std::uint8_t> consumed_;
  std::vector<std::size_t> op_of_slot_;
  // seed_blocks scratch.
  std::vector<std::size_t> pool_of_u_;  // pool position of a u-slot
  std::vector<std::size_t> pool_of_v_;  // pool position of a v-slot
  std::vector<std::uint64_t> unvisited_u_;
  std::vector<std::uint64_t> unvisited_v_;
  std::vector<std::size_t> pool_, rest_, component_, stack_, members_,
      component_start_, cursor_, preds_, order_;
  std::vector<std::uint8_t> hit_;
};

// What the final relation proves about a network whose output position
// p is held by slot output_order[p]. Fills `relabel_ranks` (rank of the
// value at each output position) for CertifiedUpToRelabel.
AnalyzeVerdict judge_outputs(const OrderRelation& relation,
                             std::span<const wire_t> output_order,
                             std::vector<wire_t>& relabel_ranks) {
  if (relation.proves_chain(output_order)) return AnalyzeVerdict::Certified;
  const auto ranks = relation.total_order_ranks();
  if (!ranks) return AnalyzeVerdict::Inconclusive;
  relabel_ranks.resize(output_order.size());
  for (std::size_t p = 0; p < output_order.size(); ++p)
    relabel_ranks[p] = (*ranks)[output_order[p]];
  return AnalyzeVerdict::CertifiedUpToRelabel;
}

}  // namespace

const char* analyze_verdict_name(AnalyzeVerdict verdict) noexcept {
  switch (verdict) {
    case AnalyzeVerdict::Certified:
      return "sorting";
    case AnalyzeVerdict::CertifiedUpToRelabel:
      return "sorting-up-to-relabel";
    case AnalyzeVerdict::Inconclusive:
      return "inconclusive";
  }
  return "?";
}

std::size_t AnalyzeReport::redundant_count() const noexcept {
  return std::size_t(std::count_if(
      trivial_ops.begin(), trivial_ops.end(),
      [](const OpFinding& f) { return f.fate == OpFate::Redundant; }));
}

std::size_t AnalyzeReport::always_exchange_count() const noexcept {
  return std::size_t(std::count_if(
      trivial_ops.begin(), trivial_ops.end(),
      [](const OpFinding& f) { return f.fate == OpFate::AlwaysExchange; }));
}

LevelProgram level_program(const ComparatorNetwork& net) {
  LevelProgram prog;
  prog.width = net.width();
  prog.levels.resize(net.depth());
  // slot_of[w] = slot currently holding wire w's line; exchanges are
  // wiring, so they move the mapping instead of emitting an op - the
  // same normalization compile() performs.
  std::vector<wire_t> slot_of(net.width());
  std::iota(slot_of.begin(), slot_of.end(), 0);
  for (std::size_t li = 0; li < net.depth(); ++li) {
    for (const Gate& g : net.level(li).gates) {
      switch (g.op) {
        case GateOp::CompareAsc:
          prog.levels[li].push_back(LevelOp{slot_of[g.lo], slot_of[g.hi]});
          break;
        case GateOp::CompareDesc:
          prog.levels[li].push_back(LevelOp{slot_of[g.hi], slot_of[g.lo]});
          break;
        case GateOp::Exchange:
          std::swap(slot_of[g.lo], slot_of[g.hi]);
          break;
        case GateOp::Passthrough:
          break;
      }
    }
  }
  prog.output_order = std::move(slot_of);
  return prog;
}

AnalyzeReport analyze(const LevelProgram& prog, const AnalyzeOptions& options) {
  AnalyzeReport report;
  report.width = prog.width;
  report.levels = prog.levels.size();

  RelationEngine engine(prog.width);
  OrderRelation& relation = engine.relation();
  for (wire_t w : options.zero_inputs) relation.pin_zero(w);
  for (wire_t w : options.one_inputs) relation.pin_one(w);

  std::vector<bool> touched(prog.width, false);
  std::vector<OpFate> fates;
  for (std::size_t li = 0; li < prog.levels.size(); ++li) {
    const auto& ops = prog.levels[li];
    report.comparators += ops.size();
    engine.step(ops, fates);
    bool all_redundant = !ops.empty();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      touched[ops[i].min_slot] = true;
      touched[ops[i].max_slot] = true;
      if (fates[i] != OpFate::Redundant) all_redundant = false;
      if (fates[i] != OpFate::Effective) {
        report.trivial_ops.push_back(OpFinding{
            static_cast<std::uint32_t>(li), static_cast<std::uint32_t>(i),
            ops[i].min_slot, ops[i].max_slot, fates[i]});
      }
    }
    if (all_redundant)
      report.dead_levels.push_back(static_cast<std::uint32_t>(li));
  }
  for (wire_t s = 0; s < prog.width; ++s)
    if (!touched[s]) report.untouched_slots.push_back(s);

  if (prog.output_order.size() != prog.width)
    throw std::invalid_argument("analyze: output_order size mismatch");
  report.verdict =
      judge_outputs(relation, prog.output_order, report.relabel_ranks);

  report.relation_pairs = relation.pair_count();
  report.relation_fingerprint = relation.fingerprint();
  report.subsumption_fingerprint = relation.invariant_fingerprint();
  return report;
}

AnalyzeReport analyze(const ComparatorNetwork& net,
                      const AnalyzeOptions& options) {
  return analyze(level_program(net), options);
}

EliminationResult eliminate_redundant(const ComparatorNetwork& net) {
  EliminationResult result;
  result.net = ComparatorNetwork(net.width());

  RelationEngine engine(net.width());
  std::vector<wire_t> slot_of(net.width());
  std::iota(slot_of.begin(), slot_of.end(), 0);
  std::vector<LevelOp> ops;
  std::vector<OpFate> fates;
  for (std::size_t li = 0; li < net.depth(); ++li) {
    const Level& level = net.level(li);
    // Pass 1: the level's ops in slot coordinates (pre-level mapping;
    // gates in a level are wire-disjoint, so in-level exchanges cannot
    // feed a comparator of the same level).
    ops.clear();
    for (const Gate& g : level.gates) {
      if (g.op == GateOp::CompareAsc)
        ops.push_back(LevelOp{slot_of[g.lo], slot_of[g.hi]});
      else if (g.op == GateOp::CompareDesc)
        ops.push_back(LevelOp{slot_of[g.hi], slot_of[g.lo]});
    }
    // Pass 2: judge against the pre-level relation, then advance it
    // with the ORIGINAL ops (the rewrite below is pointwise identical,
    // so the relation of the optimized network is the same).
    engine.step(ops, fates);
    // Pass 3: rebuild the level.
    Level rebuilt;
    std::size_t op_index = 0;
    for (const Gate& g : level.gates) {
      if (!is_comparator(g.op)) {
        if (g.op == GateOp::Exchange) std::swap(slot_of[g.lo], slot_of[g.hi]);
        rebuilt.gates.push_back(g);
        continue;
      }
      const OpFate fate = fates[op_index];
      if (fate != OpFate::Effective) {
        result.findings.push_back(OpFinding{
            static_cast<std::uint32_t>(li),
            static_cast<std::uint32_t>(op_index), ops[op_index].min_slot,
            ops[op_index].max_slot, fate});
      }
      switch (fate) {
        case OpFate::Effective:
          rebuilt.gates.push_back(g);
          break;
        case OpFate::Redundant:
          ++result.removed;
          break;
        case OpFate::AlwaysExchange:
          // The comparator always swaps (or ties, where swapping is
          // indistinguishable): pure wiring from here on. slot_of is
          // NOT touched - it tracks the original network, whose
          // comparators never move the slot mapping, and wire values
          // stay pointwise identical between the two networks.
          rebuilt.gates.push_back(Gate(g.lo, g.hi, GateOp::Exchange));
          break;
      }
      ++op_index;
    }
    result.net.add_level(std::move(rebuilt));
  }
  // slot_of now maps each output wire to the slot of the original
  // network's final relation that holds its value, which the rewrite
  // leaves pointwise unchanged.
  result.verdict =
      judge_outputs(engine.relation(), slot_of, result.relabel_ranks);
  result.exchanged = std::size_t(std::count_if(
      result.findings.begin(), result.findings.end(),
      [](const OpFinding& f) { return f.fate == OpFate::AlwaysExchange; }));
  return result;
}

}  // namespace shufflebound
