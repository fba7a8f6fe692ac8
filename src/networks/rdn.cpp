#include "networks/rdn.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/bits.hpp"

namespace shufflebound {

// ---------------------------------------------------------------------------
// RdnTree
// ---------------------------------------------------------------------------

const std::vector<RdnTree::Node>& RdnTree::nodes() const noexcept {
  static const std::vector<Node> kNone;
  return shape_ ? shape_->nodes : kNone;
}

const std::vector<wire_t>& RdnTree::leaf_order() const noexcept {
  static const std::vector<wire_t> kNone;
  return shape_ ? shape_->leaf_order : kNone;
}

std::vector<int> RdnTree::nodes_at_level(std::uint32_t level) const {
  std::vector<int> out;
  for (std::size_t id = 0; id < nodes().size(); ++id)
    if (nodes()[id].level == level) out.push_back(static_cast<int>(id));
  return out;
}

int RdnTree::node_of(std::uint32_t level, wire_t w) const {
  // Walk down from the root; wires per node are sorted at build time only
  // within from_order-style trees, so use membership via the per-level map.
  for (std::size_t id = 0; id < nodes().size(); ++id) {
    const Node& node = nodes()[id];
    if (node.level != level) continue;
    if (std::find(node.wires.begin(), node.wires.end(), w) != node.wires.end())
      return static_cast<int>(id);
  }
  return -1;
}

int RdnTree::build_split(std::vector<Node>& nodes,
                         std::span<const wire_t> wires, std::uint32_t level) {
  Node node;
  node.level = level;
  node.wires.assign(wires.begin(), wires.end());
  if (level > 0) {
    const std::size_t half = wires.size() / 2;
    node.left = build_split(nodes, wires.subspan(0, half), level - 1);
    node.right = build_split(nodes, wires.subspan(half), level - 1);
  }
  const int id = static_cast<int>(nodes.size());
  nodes.push_back(std::move(node));
  return id;
}

RdnTree RdnTree::from_order(std::vector<wire_t> order) {
  if (!is_pow2(order.size()))
    throw std::invalid_argument("RdnTree::from_order: size must be 2^l");
  RdnTree tree;
  const std::uint32_t depth = log2_exact(order.size());
  auto shape = std::make_shared<Shape>();
  shape->nodes.reserve(2 * order.size() - 1);
  tree.root_ = build_split(shape->nodes, std::span<const wire_t>(order), depth);
  shape->leaf_order = std::move(order);
  tree.shape_ = std::move(shape);
  return tree;
}

RdnTree RdnTree::contiguous(std::uint32_t depth) {
  std::vector<wire_t> order(std::size_t{1} << depth);
  std::iota(order.begin(), order.end(), 0u);
  return from_order(std::move(order));
}

RdnTree RdnTree::shuffle_chunk(std::uint32_t depth) {
  // The level-t node of entry register r is keyed by r's low (depth - t)
  // bits; ordering wires by the bit-reversal of their index makes the
  // contiguous first/second-half split realize exactly that keying.
  const std::size_t n = std::size_t{1} << depth;
  std::vector<wire_t> order(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = static_cast<wire_t>(reverse_bits(i, depth));
  return from_order(std::move(order));
}

std::optional<std::string> RdnTree::validate(const ComparatorNetwork& net) const {
  if (nodes().empty()) return "empty tree";
  if (net.width() != width()) return "width mismatch";
  if (net.depth() != depth()) return "depth mismatch";

  // Every node owns a block of the leaf order (see leaf_order()), so the
  // tree covers every wire at every level iff that order is a permutation
  // of the wires, and a level-t gate crosses the two children of one
  // level-t node iff its endpoints' leaf ranks first differ at bit t-1.
  const std::uint32_t d = depth();
  const wire_t n = width();
  constexpr std::uint32_t kNoRank = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> rank(n, kNoRank);
  const std::vector<wire_t>& order = leaf_order();
  for (std::uint32_t r = 0; r < n; ++r) {
    // from_order takes any leaf order; a parsed one may name a wire past
    // the width.
    if (order[r] >= n)
      return "tree wire " + std::to_string(order[r]) + " out of range";
    rank[order[r]] = r;
  }
  for (wire_t w = 0; w < n; ++w)
    if (rank[w] == kNoRank)
      return "tree does not cover wire " + std::to_string(w) + " at level 0";

  for (std::uint32_t t = 1; t <= d; ++t) {
    for (const Gate& g : net.level(t - 1).gates) {
      const std::uint32_t diff = rank[g.lo] ^ rank[g.hi];
      if ((diff >> t) != 0)
        return "level " + std::to_string(t) + " gate spans two level-" +
               std::to_string(t) + " nodes";
      if ((diff >> (t - 1)) != 1)
        return "level " + std::to_string(t) +
               " gate does not cross the two subnetworks";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

GateOp cross_op_all_ascending(std::uint32_t /*level*/, wire_t /*a*/,
                              wire_t /*b*/) {
  return GateOp::CompareAsc;
}

namespace {

/// Assembles a circuit from a tree and a per-node matching/op policy.
/// `matcher(t, left_wires, right_wires)` returns pairs to connect.
ComparatorNetwork build_from_tree(
    const RdnTree& tree,
    const std::function<std::vector<std::pair<wire_t, wire_t>>(
        std::uint32_t, const std::vector<wire_t>&, const std::vector<wire_t>&)>&
        matcher,
    const CrossOpPolicy& policy) {
  ComparatorNetwork net(tree.width());
  for (std::uint32_t t = 1; t <= tree.depth(); ++t) {
    Level level;
    for (const int id : tree.nodes_at_level(t)) {
      const RdnTree::Node& node = tree.node(id);
      const auto& left = tree.node(node.left).wires;
      const auto& right = tree.node(node.right).wires;
      for (const auto& [a, b] : matcher(t, left, right)) {
        const GateOp op = policy(t, a, b);
        if (op == GateOp::Passthrough) continue;
        level.gates.emplace_back(a, b, op);
      }
    }
    net.add_level(std::move(level));
  }
  return net;
}

std::vector<std::pair<wire_t, wire_t>> identity_matching(
    std::uint32_t /*t*/, const std::vector<wire_t>& left,
    const std::vector<wire_t>& right) {
  std::vector<std::pair<wire_t, wire_t>> pairs;
  pairs.reserve(left.size());
  for (std::size_t i = 0; i < left.size(); ++i)
    pairs.emplace_back(left[i], right[i]);
  return pairs;
}

}  // namespace

RdnChunk butterfly_rdn(std::uint32_t depth, const CrossOpPolicy& policy) {
  RdnTree tree = RdnTree::contiguous(depth);
  ComparatorNetwork net = build_from_tree(tree, identity_matching, policy);
  return RdnChunk{std::move(net), std::move(tree)};
}

RdnChunk random_rdn(std::uint32_t depth, Prng& rng, unsigned drop_percent,
                    unsigned exchange_percent) {
  const std::size_t n = std::size_t{1} << depth;
  std::vector<wire_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  shuffle_in_place(order, rng);
  RdnTree tree = RdnTree::from_order(std::move(order));

  auto matcher = [&rng](std::uint32_t, const std::vector<wire_t>& left,
                        const std::vector<wire_t>& right) {
    std::vector<wire_t> shuffled_right = right;
    shuffle_in_place(shuffled_right, rng);
    std::vector<std::pair<wire_t, wire_t>> pairs;
    pairs.reserve(left.size());
    for (std::size_t i = 0; i < left.size(); ++i)
      pairs.emplace_back(left[i], shuffled_right[i]);
    return pairs;
  };
  auto policy = [&rng, drop_percent, exchange_percent](
                    std::uint32_t, wire_t, wire_t) -> GateOp {
    const std::uint64_t roll = rng.below(100);
    if (roll < drop_percent) return GateOp::Passthrough;
    if (roll < drop_percent + exchange_percent) return GateOp::Exchange;
    return rng.chance(1, 2) ? GateOp::CompareAsc : GateOp::CompareDesc;
  };
  ComparatorNetwork net = build_from_tree(tree, matcher, policy);
  return RdnChunk{std::move(net), std::move(tree)};
}

// ---------------------------------------------------------------------------
// IteratedRdn
// ---------------------------------------------------------------------------

std::size_t IteratedRdn::depth() const noexcept {
  std::size_t total = 0;
  for (const Stage& stage : stages_) total += stage.chunk.net.depth();
  return total;
}

std::size_t IteratedRdn::effective_depth() const noexcept {
  std::size_t total = 0;
  for (const Stage& stage : stages_)
    for (const Level& level : stage.chunk.net.levels())
      if (!level.empty()) ++total;
  return total;
}

std::size_t IteratedRdn::comparator_count() const noexcept {
  std::size_t total = 0;
  for (const Stage& stage : stages_) total += stage.chunk.net.comparator_count();
  return total;
}

void IteratedRdn::add_stage(Stage stage) {
  if (stage.chunk.net.width() != width_)
    throw std::invalid_argument("IteratedRdn::add_stage: chunk width mismatch");
  if (stage.pre.size() != width_)
    throw std::invalid_argument("IteratedRdn::add_stage: permutation size");
  if (stage.chunk.tree.width() != width_ ||
      stage.chunk.tree.depth() != stage.chunk.net.depth())
    throw std::invalid_argument("IteratedRdn::add_stage: tree/net mismatch");
  if (auto err = stage.chunk.tree.validate(stage.chunk.net))
    throw std::invalid_argument("IteratedRdn::add_stage: not an RDN: " + *err);
  stages_.push_back(std::move(stage));
}

IteratedRdn::IteratedRdn(wire_t width) : width_(width) {
  if (!is_pow2(width))
    throw std::invalid_argument("IteratedRdn: width must be 2^l");
}

FlattenedNetwork IteratedRdn::flatten() const {
  ComparatorNetwork out(width_);
  // wire_of[slot] = flattened circuit wire currently at this slot.
  std::vector<wire_t> wire_of(width_);
  std::iota(wire_of.begin(), wire_of.end(), 0u);
  std::vector<wire_t> scratch(width_);
  for (const Stage& stage : stages_) {
    for (wire_t s = 0; s < width_; ++s) scratch[stage.pre[s]] = wire_of[s];
    wire_of.swap(scratch);
    for (const Level& level : stage.chunk.net.levels()) {
      Level mapped;
      for (const Gate& g : level.gates) {
        // Gate op is expressed relative to the first constructor argument.
        const GateOp op_for_lo = g.op;
        mapped.gates.emplace_back(wire_of[g.lo], wire_of[g.hi], op_for_lo);
      }
      out.add_level(std::move(mapped));
    }
  }
  return FlattenedNetwork{std::move(out), Permutation(std::move(wire_of))};
}

IteratedRdn make_iterated_rdn(
    wire_t width, std::size_t stage_count,
    const std::function<RdnChunk(std::size_t)>& make_chunk,
    const std::function<Permutation(std::size_t)>& make_perm) {
  IteratedRdn net(width);
  for (std::size_t c = 0; c < stage_count; ++c)
    net.add_stage(IteratedRdn::Stage{make_perm(c), make_chunk(c)});
  return net;
}

// ---------------------------------------------------------------------------
// Shuffle-based networks as iterated RDNs
// ---------------------------------------------------------------------------

IteratedRdn shuffle_to_iterated_rdn(const RegisterNetwork& net,
                                    std::size_t chunk_len,
                                    ShuffleCheck check) {
  const wire_t n = net.width();
  const std::uint32_t d = log2_exact(n);
  if (chunk_len == 0) chunk_len = d;
  if (chunk_len > d)
    throw std::invalid_argument("shuffle_to_iterated_rdn: chunk_len > lg n");
  if (check == ShuffleCheck::Check && !net.is_shuffle_based())
    throw std::invalid_argument("shuffle_to_iterated_rdn: not shuffle-based");

  IteratedRdn out(n);
  Permutation carry = Permutation::identity(n);  // pre-perm of the next stage
  const RdnTree tree_template = RdnTree::shuffle_chunk(d);
  for (std::size_t first = 0; first < net.depth(); first += chunk_len) {
    const std::size_t last = std::min(first + chunk_len, net.depth());
    RegisterNetwork part(n);
    for (std::size_t s = first; s < last; ++s) part.add_step(net.step(s));
    FlattenedNetwork flat = register_to_circuit(part);
    // Pad the truncated chunk with empty levels up to a d-level RDN.
    while (flat.circuit.depth() < d) flat.circuit.add_level(Level{});
    IteratedRdn::Stage stage;
    stage.pre = carry;
    stage.chunk = RdnChunk{std::move(flat.circuit), tree_template};
    out.add_stage(std::move(stage));
    carry = flat.register_to_wire.inverse();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Recognizer
// ---------------------------------------------------------------------------

namespace {

struct UnionFind {
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void merge(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
  std::vector<std::size_t> parent;
};

/// Picks, for each constraint cluster, an orientation, and for each free
/// component a side, such that side 0 receives exactly `target` wires.
/// Items: (side0_size_if_option_a, side0_size_if_option_b). Exact bitset
/// subset-sum DP with parent tracking.
std::optional<std::vector<int>> pick_sides(
    const std::vector<std::pair<std::size_t, std::size_t>>& items,
    std::size_t target) {
  const std::size_t width = target + 1;
  std::vector<std::vector<bool>> reachable(items.size() + 1,
                                           std::vector<bool>(width, false));
  reachable[0][0] = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t s = 0; s < width; ++s) {
      if (!reachable[i][s]) continue;
      if (s + items[i].first < width) reachable[i + 1][s + items[i].first] = true;
      if (s + items[i].second < width)
        reachable[i + 1][s + items[i].second] = true;
    }
  }
  if (!reachable[items.size()][target]) return std::nullopt;
  std::vector<int> choice(items.size(), 0);
  std::size_t s = target;
  for (std::size_t i = items.size(); i-- > 0;) {
    if (items[i].first <= s && reachable[i][s - items[i].first]) {
      choice[i] = 0;
      s -= items[i].first;
    } else {
      choice[i] = 1;
      s -= items[i].second;
    }
  }
  return choice;
}

// A level-l subnetwork occupies circuit levels [0, l), its cross level
// being circuit level l-1 (0-based); this is how Definition 3.4 layers.
bool recognize_rec(const ComparatorNetwork& net, std::vector<wire_t> wires,
                   std::uint32_t levels, std::vector<RdnTree::Node>& nodes,
                   int& out_id) {
  RdnTree::Node node;
  node.level = levels;
  node.wires = wires;
  if (levels == 0) {
    if (wires.size() != 1) return false;
    out_id = static_cast<int>(nodes.size());
    nodes.push_back(std::move(node));
    return true;
  }
  // Map wires to dense local ids.
  std::vector<std::size_t> local(net.width(), SIZE_MAX);
  for (std::size_t i = 0; i < wires.size(); ++i) local[wires[i]] = i;

  // Connectivity from levels [0, levels-1).
  UnionFind uf(wires.size());
  for (std::uint32_t t = 0; t < levels - 1; ++t) {
    for (const Gate& g : net.level(t).gates) {
      const bool lo_in = local[g.lo] != SIZE_MAX;
      const bool hi_in = local[g.hi] != SIZE_MAX;
      if (lo_in != hi_in) return false;  // gate crosses the node boundary
      if (lo_in) uf.merge(local[g.lo], local[g.hi]);
    }
  }
  // Component ids and sizes.
  std::vector<std::size_t> comp_of(wires.size());
  std::vector<std::size_t> comp_size;
  {
    std::vector<std::size_t> remap(wires.size(), SIZE_MAX);
    for (std::size_t i = 0; i < wires.size(); ++i) {
      const std::size_t r = uf.find(i);
      if (remap[r] == SIZE_MAX) {
        remap[r] = comp_size.size();
        comp_size.push_back(0);
      }
      comp_of[i] = remap[r];
      ++comp_size[comp_of[i]];
    }
  }
  // 2-color components using final-level gates as "different side" edges.
  std::vector<std::vector<std::size_t>> adj(comp_size.size());
  for (const Gate& g : net.level(levels - 1).gates) {
    const bool lo_in = local[g.lo] != SIZE_MAX;
    const bool hi_in = local[g.hi] != SIZE_MAX;
    if (lo_in != hi_in) return false;
    if (!lo_in) continue;
    const std::size_t ca = comp_of[local[g.lo]];
    const std::size_t cb = comp_of[local[g.hi]];
    if (ca == cb) return false;  // endpoints already connected: not an RDN
    adj[ca].push_back(cb);
    adj[cb].push_back(ca);
  }
  std::vector<int> color(comp_size.size(), -1);
  std::vector<std::pair<std::size_t, std::size_t>> items;  // (side0 if opt a/b)
  std::vector<std::vector<std::size_t>> item_comps;
  for (std::size_t c = 0; c < comp_size.size(); ++c) {
    if (color[c] != -1) continue;
    // BFS the constraint cluster containing c.
    std::vector<std::size_t> stack{c};
    color[c] = 0;
    std::size_t size0 = 0, size1 = 0;
    std::vector<std::size_t> members;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      members.push_back(u);
      (color[u] == 0 ? size0 : size1) += comp_size[u];
      for (const std::size_t v : adj[u]) {
        if (color[v] == -1) {
          color[v] = 1 - color[u];
          stack.push_back(v);
        } else if (color[v] == color[u]) {
          return false;  // odd cycle: no bipartition exists
        }
      }
    }
    items.emplace_back(size0, size1);
    item_comps.push_back(std::move(members));
  }
  const std::size_t half = wires.size() / 2;
  const auto choice = pick_sides(items, half);
  if (!choice) return false;
  // side_of_comp: 0 or 1.
  std::vector<int> side_of_comp(comp_size.size(), -1);
  for (std::size_t it = 0; it < items.size(); ++it) {
    for (const std::size_t c : item_comps[it]) {
      const int base = color[c];
      side_of_comp[c] = ((*choice)[it] == 0) ? base : 1 - base;
    }
  }
  std::vector<wire_t> left_wires, right_wires;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    (side_of_comp[comp_of[i]] == 0 ? left_wires : right_wires)
        .push_back(wires[i]);
  }
  if (left_wires.size() != half || right_wires.size() != half) return false;

  int left_id = -1, right_id = -1;
  if (!recognize_rec(net, std::move(left_wires), levels - 1, nodes, left_id))
    return false;
  if (!recognize_rec(net, std::move(right_wires), levels - 1, nodes, right_id))
    return false;
  node.left = left_id;
  node.right = right_id;
  out_id = static_cast<int>(nodes.size());
  nodes.push_back(std::move(node));
  return true;
}

}  // namespace

std::optional<RdnTree> recognize_rdn(const ComparatorNetwork& net) {
  if (!is_pow2(net.width())) return std::nullopt;
  const std::uint32_t d = log2_exact(net.width());
  if (net.depth() != d) return std::nullopt;
  std::vector<wire_t> all(net.width());
  std::iota(all.begin(), all.end(), 0u);

  std::vector<RdnTree::Node> nodes;
  int root = -1;
  if (!recognize_rec(net, std::move(all), d, nodes, root)) return std::nullopt;
  // Rebuild via from_order using the leaf order implied by `nodes` so the
  // public invariants (contiguous half splits over an order) hold.
  // Leaves appear in post-order; recover the root's wire order by walking
  // the tree.
  RdnTree tree;
  std::vector<wire_t> order;
  order.reserve(net.width());
  const std::function<void(int)> walk = [&](int id) {
    const RdnTree::Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.level == 0) {
      order.push_back(node.wires[0]);
      return;
    }
    walk(node.left);
    walk(node.right);
  };
  walk(root);
  return RdnTree::from_order(std::move(order));
}

}  // namespace shufflebound
