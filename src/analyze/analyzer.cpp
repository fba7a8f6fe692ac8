#include "analyze/analyzer.hpp"

#include <algorithm>
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
struct SegmentFact {
  std::vector<wire_t> cycle;
};

// Antipodal-butterfly match of `fact` against a level. ops_of_slot maps
// slot -> op index in `ops` (or npos). On success, appends the matched
// op indices (in fact-position order 0..m-1) to `pairs`.
constexpr std::size_t kNoOp = std::size_t(-1);

bool match_butterfly(const SegmentFact& fact,
                     std::span<const LevelOp> ops,
                     std::span<const std::size_t> op_of_slot,
                     std::vector<std::size_t>& pairs) {
  const std::size_t len = fact.cycle.size();
  if (len < 2 || len % 2 != 0) return false;
  const std::size_t m = len / 2;
  pairs.clear();
  for (std::size_t i = 0; i < m; ++i) {
    const wire_t a = fact.cycle[i];
    const wire_t b = fact.cycle[i + m];
    const std::size_t oi = op_of_slot[a];
    if (oi == kNoOp || oi != op_of_slot[b]) return false;
    const LevelOp& op = ops[oi];
    const bool covers = (op.min_slot == a && op.max_slot == b) ||
                        (op.min_slot == b && op.max_slot == a);
    if (!covers) return false;
    pairs.push_back(oi);
  }
  return true;
}

// The per-network analysis engine shared by analyze() and
// eliminate_redundant(): the pairwise relation plus the active segment
// facts, advanced one level at a time.
class RelationEngine {
 public:
  explicit RelationEngine(wire_t width)
      : relation_(width), op_of_slot_(width, kNoOp) {}

  OrderRelation& relation() noexcept { return relation_; }

  /// Advances by one level; `fates` receives the pre-level verdicts.
  void step(std::span<const LevelOp> ops, std::vector<OpFate>& fates) {
    const wire_t width = relation_.width();
    fates.assign(ops.size(), OpFate::Effective);
    std::fill(op_of_slot_.begin(), op_of_slot_.end(), kNoOp);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      op_of_slot_[ops[i].min_slot] = i;
      op_of_slot_[ops[i].max_slot] = i;
    }

    // Phase 1: match active facts against this level (purely
    // structural), remember splits to perform after the transfer.
    std::vector<SegmentFact> survivors;
    std::vector<std::vector<std::size_t>> splits;  // op indices, pair order
    std::vector<bool> consumed(ops.size(), false);
    std::vector<std::size_t> pairs;
    for (SegmentFact& fact : facts_) {
      bool touched = false;
      for (wire_t s : fact.cycle) touched |= (op_of_slot_[s] != kNoOp);
      if (!touched) {
        survivors.push_back(std::move(fact));
        continue;
      }
      if (match_butterfly(fact, ops, op_of_slot_, pairs)) {
        for (std::size_t oi : pairs) consumed[oi] = true;
        splits.push_back(pairs);
      }
      // Touched but not a clean butterfly: the fact dies.
    }

    // Phase 2: seed new facts from proven chains (pre-level relation).
    seed_blocks(ops, consumed, splits);

    // Phase 3: pairwise transfer (also judges the fates pre-level).
    relation_.apply_level(ops, fates.data());

    // Phase 4: apply Batcher's split lemma for every matched or seeded
    // butterfly - cross facts into the relation, halves become facts.
    facts_ = std::move(survivors);
    bool injected = false;
    for (const auto& block : splits) {
      SegmentFact low;
      SegmentFact high;
      for (std::size_t oi : block) {
        low.cycle.push_back(ops[oi].min_slot);
        high.cycle.push_back(ops[oi].max_slot);
      }
      for (wire_t l : low.cycle)
        for (wire_t h : high.cycle)
          if (l != h) {
            relation_.add_fact(l, h);
            injected = true;
          }
      // Only even-length halves can meet another antipodal butterfly;
      // length-2 halves are fully covered by the pairwise relation.
      if (low.cycle.size() >= 4 && low.cycle.size() % 2 == 0) {
        facts_.push_back(std::move(low));
        facts_.push_back(std::move(high));
      }
    }
    if (injected) relation_.close_transitively();
    (void)width;
  }

 private:
  // Groups the unconsumed ops of a level into candidate merge blocks
  // and seeds a cyclic-bitonic fact per block that admits a chain
  // order. Pairs j and j' are chain-comparable under an endpoint
  // assignment (u, v) iff u_j <= u_j' and v_j' <= v_j; a block seeds
  // when one global assignment (u = min side or u = max side) makes
  // its comparability component a total order.
  void seed_blocks(std::span<const LevelOp> ops,
                   const std::vector<bool>& consumed,
                   std::vector<std::vector<std::size_t>>& splits) {
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (!consumed[i]) pool.push_back(i);
    if (pool.size() < 2) return;

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
      // Connected components of the comparability graph.
      std::vector<std::size_t> component(pool.size(), kNoOp);
      std::size_t component_count = 0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (component[i] != kNoOp) continue;
        std::vector<std::size_t> stack{i};
        component[i] = component_count;
        while (!stack.empty()) {
          const std::size_t x = stack.back();
          stack.pop_back();
          for (std::size_t y = 0; y < pool.size(); ++y) {
            if (component[y] != kNoOp) continue;
            if (before(pool[x], pool[y]) || before(pool[y], pool[x])) {
              component[y] = component_count;
              stack.push_back(y);
            }
          }
        }
        ++component_count;
      }
      std::vector<bool> seeded(pool.size(), false);
      for (std::size_t c = 0; c < component_count; ++c) {
        std::vector<std::size_t> block;
        for (std::size_t i = 0; i < pool.size(); ++i)
          if (component[i] == c && !seeded[i]) block.push_back(pool[i]);
        if (block.size() < 2) continue;
        // Total-order check + chain sort by predecessor count.
        std::vector<std::size_t> preds(block.size(), 0);
        bool chain = true;
        for (std::size_t x = 0; x < block.size() && chain; ++x) {
          for (std::size_t y = x + 1; y < block.size() && chain; ++y) {
            const bool xy = before(block[x], block[y]);
            const bool yx = before(block[y], block[x]);
            if (!xy && !yx) chain = false;
            if (xy) ++preds[y];
            if (yx) ++preds[x];
          }
        }
        if (!chain) continue;
        std::vector<std::size_t> order(block.size());
        bool distinct = true;
        std::vector<bool> hit(block.size(), false);
        for (std::size_t x = 0; x < block.size(); ++x) {
          if (preds[x] >= block.size() || hit[preds[x]]) {
            distinct = false;
            break;
          }
          hit[preds[x]] = true;
          order[preds[x]] = block[x];
        }
        if (!distinct) continue;
        // The level is this seeded fact's own antipodal butterfly:
        // record it as a split directly.
        splits.push_back(order);
        for (std::size_t i = 0; i < pool.size(); ++i)
          if (component[i] == c) seeded[i] = true;
      }
      // Ops seeded under one assignment are out of the pool for the
      // other (a block matches under exactly one in practice).
      std::vector<std::size_t> rest;
      for (std::size_t i = 0; i < pool.size(); ++i)
        if (!seeded[i]) rest.push_back(pool[i]);
      pool = std::move(rest);
      if (pool.size() < 2) break;
    }
  }

  OrderRelation relation_;
  std::vector<SegmentFact> facts_;
  std::vector<std::size_t> op_of_slot_;
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
