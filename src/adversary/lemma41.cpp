#include "adversary/lemma41.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace shufflebound {

namespace {

constexpr std::uint32_t kNoSet = static_cast<std::uint32_t>(-1);

bool is_entry_symbol(PatternSymbol s) {
  return s == sym_S(0) || s == sym_M(0) || s == sym_L(0);
}

}  // namespace

Lemma41Driver::Lemma41Driver(RdnTree tree, InputPattern p, std::uint32_t k)
    : tree_(std::move(tree)),
      k_(k),
      net_(tree_.width()),
      pattern_(std::move(p)) {
  if (k_ == 0) throw std::invalid_argument("Lemma41Driver: k must be >= 1");
  const wire_t n = tree_.width();
  if (pattern_.size() != n)
    throw std::invalid_argument("Lemma41Driver: pattern width mismatch");
  for (wire_t w = 0; w < n; ++w)
    if (!is_entry_symbol(pattern_[w]))
      throw std::invalid_argument(
          "Lemma41Driver: entry pattern must contain only S_0, M_0, L_0");

  state_.assign(pattern_.symbols().begin(), pattern_.symbols().end());
  pos_of_wire_.assign(n, npos);
  wire_at_pos_.assign(n, npos);
  node_of_wire_.assign(n, -1);
  node_sets_.assign(tree_.nodes().size(), NodeSets{});
  set_index_of_wire_.assign(n, kNoSet);

  for (const int leaf : tree_.nodes_at_level(0)) {
    const wire_t w = tree_.node(leaf).wires.at(0);
    node_of_wire_[w] = leaf;
    if (pattern_[w] == sym_M(0)) {
      pos_of_wire_[w] = w;
      wire_at_pos_[w] = w;
      set_index_of_wire_[w] = 0;
      node_sets_[static_cast<std::size_t>(leaf)].sets.push_back(
          {0u, std::vector<wire_t>{w}});
      ++stats_.initial_m0;
    }
  }
}

void Lemma41Driver::demote(wire_t w, std::uint32_t set_index,
                           std::uint32_t xj) {
  const PatternSymbol grave = sym_X(set_index, xj);
  pattern_.set(w, grave);
  state_[pos_of_wire_[w]] = grave;
  wire_at_pos_[pos_of_wire_[w]] = npos;
  pos_of_wire_[w] = npos;
  set_index_of_wire_[w] = kNoSet;
}

std::vector<wire_t> Lemma41Driver::feed_level(const Level& level) {
  if (progress_) progress_();
  const std::uint32_t m = level_ + 1;
  if (m > tree_.depth())
    throw std::logic_error("Lemma41Driver: more levels than the tree has");

  // Parent lookup for this layer, plus a dense parent -> slot index so the
  // collision scan can bucket collisions by parent.
  std::vector<int> parent_of(tree_.nodes().size(), -1);
  std::vector<int> slot_of_parent(tree_.nodes().size(), -1);
  std::vector<bool> is_left_child(tree_.nodes().size(), false);
  const std::vector<int> parents = tree_.nodes_at_level(m);
  for (std::size_t slot = 0; slot < parents.size(); ++slot) {
    const int pid = parents[slot];
    const RdnTree::Node& parent = tree_.node(pid);
    parent_of[static_cast<std::size_t>(parent.left)] = pid;
    parent_of[static_cast<std::size_t>(parent.right)] = pid;
    is_left_child[static_cast<std::size_t>(parent.left)] = true;
    slot_of_parent[static_cast<std::size_t>(pid)] = static_cast<int>(slot);
  }

  // --- Validation: every gate crosses the two children of one parent. ---
  for (const Gate& g : level.gates) {
    const int a = node_of_wire_.at(g.lo);
    const int b = node_of_wire_.at(g.hi);
    if (a < 0 || b < 0 || a == b ||
        parent_of[static_cast<std::size_t>(a)] == -1 ||
        parent_of[static_cast<std::size_t>(a)] !=
            parent_of[static_cast<std::size_t>(b)])
      throw std::invalid_argument(
          "Lemma41Driver: level gate violates the RDN decomposition");
  }

  // --- Step 1: collision scan on pre-level positions. ---
  // Per parent node: triples (left set i, right set j, left wire), in
  // gate-scan order.
  struct Collision {
    std::uint32_t left_set;
    std::uint32_t right_set;
    wire_t left_wire;
  };
  std::vector<std::vector<Collision>> collisions_by_slot(parents.size());
  for (const Gate& g : level.gates) {
    if (!is_comparator(g.op)) continue;  // "1" elements never collide
    const wire_t u = wire_at_pos_[g.lo];
    const wire_t v = wire_at_pos_[g.hi];
    if (u == npos || v == npos) continue;
    // Positions g.lo / g.hi are lines of the two children, so the tracked
    // values there entered through wires of those children.
    const int nu = node_of_wire_[u];
    const wire_t wl = is_left_child[static_cast<std::size_t>(nu)] ? u : v;
    const wire_t wr = wl == u ? v : u;
    const int slot =
        slot_of_parent[static_cast<std::size_t>(parent_of[static_cast<std::size_t>(nu)])];
    collisions_by_slot[static_cast<std::size_t>(slot)].push_back(
        Collision{set_index_of_wire_[wl], set_index_of_wire_[wr], wl});
  }

  // --- Steps 2 & 3 per parent: pick i0, demote, rename the right child. ---
  // Sacrificed wires are listed in parent order, then gate-scan order.
  const std::uint32_t xj = next_xj_++;
  const std::uint64_t offsets = static_cast<std::uint64_t>(k_) * k_;
  std::vector<wire_t> sacrificed;
  for (std::size_t slot = 0; slot < parents.size(); ++slot) {
    const int pid = parents[slot];
    const RdnTree::Node& parent = tree_.node(pid);
    const std::vector<Collision>& cols = collisions_by_slot[slot];

    // loss(off) = number of collisions with left_set - right_set == off.
    std::uint32_t i0 = 0;
    {
      std::vector<std::size_t> loss(static_cast<std::size_t>(offsets), 0);
      for (const Collision& c : cols) {
        if (c.left_set >= c.right_set) {
          const std::uint64_t off = c.left_set - c.right_set;
          if (off < offsets) ++loss[static_cast<std::size_t>(off)];
        }
      }
      std::size_t best = SIZE_MAX;
      for (std::uint64_t off = 0; off < offsets; ++off) {
        const std::size_t value = loss[static_cast<std::size_t>(off)];
        if (value < best) {
          best = value;
          i0 = static_cast<std::uint32_t>(off);
          if (best == 0) break;
        }
      }
    }

    // Demote the wires of L_{i0} = union_j C_{j, j-i0}.
    for (const Collision& c : cols) {
      if (c.left_set >= c.right_set && c.left_set - c.right_set == i0) {
        demote(c.left_wire, c.left_set, xj);
        sacrificed.push_back(c.left_wire);
      }
    }

    // Rename the right child (paper steps 1'/2'): shift M_i -> M_{i+i0},
    // X_{i,j} -> X_{i+i0,j}, on the input pattern, the state lines (values
    // from right-child wires are still on right-child lines before this
    // level acts), and the set bookkeeping.
    if (i0 > 0) {
      const RdnTree::Node& right = tree_.node(parent.right);
      for (const wire_t w : right.wires) {
        for (PatternSymbol* sym : {&pattern_.mutable_symbols()[w], &state_[w]}) {
          if (sym->kind == SymbolKind::M || sym->kind == SymbolKind::X)
            sym->i += i0;
        }
        if (set_index_of_wire_[w] != kNoSet) set_index_of_wire_[w] += i0;
      }
      for (auto& [index, wires] :
           node_sets_[static_cast<std::size_t>(parent.right)].sets)
        index += i0;
    }
  }
  stats_.loss_per_level.push_back(sacrificed.size());

  // --- Step 4: apply the level to the symbol state. ---
  // A level is a matching (add_level rejects shared wires), so distinct
  // gates touch distinct lines - and therefore distinct tracked wires.
  for (const Gate& g : level.gates) {
    PatternSymbol& a = state_[g.lo];
    PatternSymbol& b = state_[g.hi];
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
        (wire_at_pos_[g.lo] != npos || wire_at_pos_[g.hi] != npos))
      throw std::logic_error(
          "Lemma41Driver: tracked value compared against an equal symbol");
    if (do_swap) {
      std::swap(a, b);
      std::swap(wire_at_pos_[g.lo], wire_at_pos_[g.hi]);
      if (wire_at_pos_[g.lo] != npos) pos_of_wire_[wire_at_pos_[g.lo]] = g.lo;
      if (wire_at_pos_[g.hi] != npos) pos_of_wire_[wire_at_pos_[g.hi]] = g.hi;
    }
  }

  // --- Step 5: merge child set collections into the parents. ---
  for (const int pid : parents) {
    const RdnTree::Node& parent = tree_.node(pid);
    NodeSets merged;
    std::map<std::uint32_t, std::vector<wire_t>> combined;
    for (const int child : {parent.left, parent.right}) {
      for (auto& [index, wires] :
           node_sets_[static_cast<std::size_t>(child)].sets) {
        // Demoted wires were already removed from set bookkeeping lazily:
        // filter them here.
        for (const wire_t w : wires)
          if (set_index_of_wire_[w] == index) combined[index].push_back(w);
      }
      node_sets_[static_cast<std::size_t>(child)].sets.clear();
    }
    for (auto& [index, wires] : combined) {
      std::sort(wires.begin(), wires.end());
      merged.sets.push_back({index, std::move(wires)});
    }
    node_sets_[static_cast<std::size_t>(pid)] = std::move(merged);
    for (const wire_t w : parent.wires) node_of_wire_[w] = pid;
  }

  net_.add_level(level);
  level_ = m;
  return sacrificed;
}

Lemma41Result Lemma41Driver::finish() && {
  if (level_ != tree_.depth())
    throw std::logic_error("Lemma41Driver::finish: not all levels fed");
  Lemma41Result result;
  result.refined = std::move(pattern_);
  result.output = InputPattern(std::move(state_));
  result.final_position = std::move(pos_of_wire_);

  const std::size_t budget = lemma41_set_budget(k_, tree_.depth());
  result.sets.assign(budget, {});
  const NodeSets& root_sets = node_sets_[static_cast<std::size_t>(tree_.root())];
  for (const auto& [index, wires] : root_sets.sets) {
    if (index >= budget)
      throw std::logic_error("Lemma41Driver: set index exceeds t(l)");
    result.sets[index] = wires;
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
