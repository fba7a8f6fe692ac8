#include "adversary/lemma41.hpp"

#include <algorithm>
#include <stdexcept>

namespace shufflebound {

namespace {

constexpr std::uint32_t kNoSet = static_cast<std::uint32_t>(-1);

bool is_entry_symbol(PatternSymbol s) {
  return s == sym_S(0) || s == sym_M(0) || s == sym_L(0);
}

}  // namespace

Lemma41Driver::Lemma41Driver(const RdnTree& tree, InputPattern p,
                             std::uint32_t k)
    : k_(k), depth_(tree.depth()), leaf_order_(tree.leaf_order()) {
  if (k_ == 0) throw std::invalid_argument("Lemma41Driver: k must be >= 1");
  const wire_t n = static_cast<wire_t>(leaf_order_.size());
  if (p.size() != n)
    throw std::invalid_argument("Lemma41Driver: pattern width mismatch");
  for (wire_t w = 0; w < n; ++w)
    if (!is_entry_symbol(p[w]))
      throw std::invalid_argument(
          "Lemma41Driver: entry pattern must contain only S_0, M_0, L_0");
  leaf_rank_.assign(n, npos);
  for (std::uint32_t r = 0; r < n; ++r) {
    const wire_t w = leaf_order_[r];
    if (w >= n || leaf_rank_[w] != npos)
      throw std::invalid_argument(
          "Lemma41Driver: tree leaves are not a permutation of the wires");
    leaf_rank_[w] = r;
  }

  // Wire w enters on line w, so both start at w's rank.
  input_.resize(n);
  set_index_.assign(n, kNoSet);
  pos_.assign(n, npos);
  tracked_at_.assign(n, npos);
  for (std::uint32_t r = 0; r < n; ++r) {
    input_[r] = p[leaf_order_[r]];
    if (input_[r] != sym_M(0)) continue;
    set_index_[r] = 0;
    pos_[r] = r;
    tracked_at_[r] = r;
    ++stats_.initial_m0;
  }
  state_ = input_;

  // A level is a matching, so it has at most n/2 gates, collisions and
  // sacrificed wires, and level 1 has the most nodes, n/2. A node meets at
  // most n/2 collisions, so when k^2 > n/2 + 1 some offset below n/2 + 1
  // is collision-free and no larger offset can be the least-loss one.
  const std::size_t half = n / 2;
  gates_.reserve(half);
  line_stamp_.assign(n, 0);
  bucket_end_.assign(half + 1, 0);
  collisions_.resize(half);
  loss_.assign(std::min<std::uint64_t>(std::uint64_t{k_} * k_, half + 1), 0);
  sacrificed_.reserve(half);
  stats_.loss_per_level.reserve(depth_);
}

InputPattern Lemma41Driver::by_wire(
    const std::vector<PatternSymbol>& by_rank) const {
  std::vector<PatternSymbol> out(by_rank.size());
  for (std::size_t r = 0; r < by_rank.size(); ++r)
    out[leaf_order_[r]] = by_rank[r];
  return InputPattern(std::move(out));
}

void Lemma41Driver::demote(std::uint32_t r, std::uint32_t set_index,
                           std::uint32_t xj) {
  const PatternSymbol grave = sym_X(set_index, xj);
  input_[r] = grave;
  state_[pos_[r]] = grave;
  tracked_at_[pos_[r]] = npos;
  pos_[r] = npos;
  set_index_[r] = kNoSet;
}

void Lemma41Driver::rename(std::size_t first, std::size_t count,
                           std::uint32_t i0) {
  // Shift M_i -> M_{i+i0} and X_{i,j} -> X_{i+i0,j} on the child's input
  // wires and on its lines (values from a child's wires are still on that
  // child's lines before this level acts), and shift its set indexes.
  for (std::size_t r = first; r < first + count; ++r) {
    for (PatternSymbol* sym : {&input_[r], &state_[r]}) {
      if (sym->kind == SymbolKind::M || sym->kind == SymbolKind::X)
        sym->i += i0;
    }
    if (set_index_[r] != kNoSet) set_index_[r] += i0;
  }
}

std::span<const wire_t> Lemma41Driver::feed_level(const Level& level) {
  if (progress_) progress_();
  const std::uint32_t m = level_ + 1;
  if (m > depth_)
    throw std::logic_error("Lemma41Driver: more levels than the tree has");
  const wire_t n = static_cast<wire_t>(leaf_order_.size());
  const std::size_t nodes = std::size_t{n} >> m;  // level-m nodes
  const std::size_t child_size = std::size_t{1} << (m - 1);

  // --- Validation, before any state changes: a matching whose every gate
  // crosses the two children of one level-m node, i.e. whose endpoints'
  // leaf ranks first differ at bit m-1. ---
  ++stamp_;
  gates_.clear();
  for (const Gate& g : level.gates) {
    if (g.hi >= n || g.op == GateOp::Passthrough ||
        ((leaf_rank_[g.lo] ^ leaf_rank_[g.hi]) >> (m - 1)) != 1)
      throw std::invalid_argument(
          "Lemma41Driver: level gate violates the RDN decomposition");
    if (line_stamp_[g.lo] == stamp_ || line_stamp_[g.hi] == stamp_)
      throw std::invalid_argument(
          "Lemma41Driver: wires shared within a level");
    line_stamp_[g.lo] = line_stamp_[g.hi] = stamp_;
    gates_.push_back(RankGate{leaf_rank_[g.lo], leaf_rank_[g.hi], g.op});
  }

  // --- Step 1: collision scan on pre-level positions, bucketed by node
  // (counting sort, stable in gate-scan order). ---
  auto collides = [&](const RankGate& g) {
    return is_comparator(g.op) && tracked_at_[g.a] != npos &&
           tracked_at_[g.b] != npos;
  };
  std::fill_n(bucket_end_.begin(), nodes + 1, 0u);
  for (const RankGate& g : gates_)
    if (collides(g)) ++bucket_end_[(g.a >> m) + 1];
  for (std::size_t node = 1; node <= nodes; ++node)
    bucket_end_[node] += bucket_end_[node - 1];
  // Now bucket_end_[node] is where the node's collisions begin; filling
  // advances it to where they end.
  for (const RankGate& g : gates_) {
    if (!collides(g)) continue;
    // Lines a / b belong to the two children, so the tracked values there
    // entered through wires of those children.
    const bool a_is_left = ((g.a >> (m - 1)) & 1) == 0;
    const std::uint32_t left = tracked_at_[a_is_left ? g.a : g.b];
    const std::uint32_t right = tracked_at_[a_is_left ? g.b : g.a];
    collisions_[bucket_end_[g.a >> m]++] =
        Collision{set_index_[left], set_index_[right], left};
  }

  // --- Steps 2 & 3 per node: pick i0, demote, rename the right child. ---
  // Sacrificed wires are listed in node order, then gate-scan order.
  const std::uint32_t xj = next_xj_++;
  const std::uint64_t offsets = loss_.size();
  sacrificed_.clear();
  std::uint32_t begin = 0;
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::uint32_t end = bucket_end_[node];
    if (begin == end) continue;  // no collision: i0 = 0, nothing to do
    const std::span<const Collision> cols(collisions_.data() + begin,
                                          end - begin);
    begin = end;

    // loss(off) = number of collisions with left_set - right_set == off;
    // i0 = the smallest offset of least loss. At most |cols| offsets are
    // touched, so the scan stops within |cols| + 1 steps unless every
    // offset is touched (then k^2 <= |cols|).
    // A collision with left_set < right_set is on no offset: 2^32 is
    // past every offset and never equals a 32-bit i0.
    auto offset_of = [](const Collision& c) -> std::uint64_t {
      return c.left_set >= c.right_set ? c.left_set - c.right_set
                                       : std::uint64_t{kNoSet} + 1;
    };
    for (const Collision& c : cols)
      if (const std::uint64_t off = offset_of(c); off < offsets) ++loss_[off];
    std::uint32_t i0 = 0;
    std::uint32_t best = loss_[0];
    for (std::uint64_t off = 1; off < offsets && best > 0; ++off) {
      if (loss_[off] < best) {
        best = loss_[off];
        i0 = static_cast<std::uint32_t>(off);
      }
    }
    for (const Collision& c : cols)
      if (const std::uint64_t off = offset_of(c); off < offsets) loss_[off] = 0;

    // Demote the wires of L_{i0} = union_j C_{j, j-i0}.
    for (const Collision& c : cols) {
      if (offset_of(c) == i0) {
        demote(c.left_rank, c.left_set, xj);
        sacrificed_.push_back(leaf_order_[c.left_rank]);
      }
    }

    // Rename the right child (paper steps 1'/2').
    if (i0 > 0) rename(node * 2 * child_size + child_size, child_size, i0);
  }
  stats_.loss_per_level.push_back(sacrificed_.size());

  // --- Step 4: apply the level to the symbol state. ---
  // The level is a matching (checked above), so distinct gates touch
  // distinct lines - and therefore distinct tracked wires.
  for (const RankGate& g : gates_) {
    PatternSymbol& a = state_[g.a];
    PatternSymbol& b = state_[g.b];
    bool do_swap = false;
    switch (g.op) {
      case GateOp::CompareAsc:
        do_swap = b < a;
        break;
      case GateOp::CompareDesc:
        do_swap = a < b;
        break;
      case GateOp::Exchange:
        do_swap = true;
        break;
      case GateOp::Passthrough:
        break;
    }
    if (is_comparator(g.op) && a == b &&
        (tracked_at_[g.a] != npos || tracked_at_[g.b] != npos))
      throw std::logic_error(
          "Lemma41Driver: tracked value compared against an equal symbol");
    if (do_swap) {
      std::swap(a, b);
      std::swap(tracked_at_[g.a], tracked_at_[g.b]);
      if (tracked_at_[g.a] != npos) pos_[tracked_at_[g.a]] = g.a;
      if (tracked_at_[g.b] != npos) pos_[tracked_at_[g.b]] = g.b;
    }
  }

  level_ = m;
  return sacrificed_;
}

Lemma41Result Lemma41Driver::finish() && {
  if (level_ != depth_)
    throw std::logic_error("Lemma41Driver::finish: not all levels fed");
  const wire_t n = static_cast<wire_t>(leaf_order_.size());
  Lemma41Result result;
  result.refined = by_wire(input_);
  result.output = by_wire(state_);
  // The root's sets: the tracked wires grouped by index, in wire order.
  const std::size_t budget = lemma41_set_budget(k_, depth_);
  result.sets.assign(budget, {});
  result.final_position.assign(n, npos);
  for (wire_t w = 0; w < n; ++w) {
    const std::uint32_t r = leaf_rank_[w];
    if (set_index_[r] == kNoSet) continue;
    if (set_index_[r] >= budget)
      throw std::logic_error("Lemma41Driver: set index exceeds t(l)");
    result.sets[set_index_[r]].push_back(w);
    result.final_position[w] = leaf_order_[pos_[r]];
  }

  stats_.set_count = budget;
  for (const auto& wires : result.sets) {
    stats_.retained += wires.size();
    if (!wires.empty()) ++stats_.nonempty_sets;
    stats_.largest_set = std::max(stats_.largest_set, wires.size());
  }
  result.stats = std::move(stats_);
  return result;
}

Lemma41Result lemma41(const RdnChunk& chunk, const InputPattern& p,
                      std::uint32_t k) {
  if (auto err = chunk.tree.validate(chunk.net))
    throw std::invalid_argument("lemma41: chunk is not an RDN: " + *err);
  Lemma41Driver driver(chunk.tree, p, k);
  for (const Level& level : chunk.net.levels()) driver.feed_level(level);
  return std::move(driver).finish();
}

}  // namespace shufflebound
