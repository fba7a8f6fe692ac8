#include "search/prefix.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_set>

#include "analyze/order_relation.hpp"

namespace shufflebound {

namespace {

/// Order-free u64 encoding of a matching: each pair as one nibble-packed
/// byte (lo * 16 + hi, valid since kSearchWidthCap <= 15), bytes sorted
/// ascending. Equal encodings <=> equal gate sets.
std::uint64_t encode_matching(
    std::span<const std::pair<std::uint8_t, std::uint8_t>> pairs) {
  std::array<std::uint8_t, kSearchWidthCap / 2> bytes{};
  for (std::size_t i = 0; i < pairs.size(); ++i)
    bytes[i] = std::uint8_t(pairs[i].first * 16 + pairs[i].second);
  std::sort(bytes.begin(), bytes.begin() + std::ptrdiff_t(pairs.size()));
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    key |= std::uint64_t(bytes[i]) << (8 * i);
  return key;
}

/// Minimum encoding of the matching's image over the whole group - the
/// orbit's canonical name.
std::uint64_t canonical_key(
    const Matching& m, const std::vector<std::vector<wire_t>>& group) {
  std::uint64_t best = ~std::uint64_t{0};
  std::vector<std::pair<std::uint8_t, std::uint8_t>> image(m.pairs.size());
  for (const auto& g : group) {
    for (std::size_t i = 0; i < m.pairs.size(); ++i) {
      auto a = std::uint8_t(g[m.pairs[i].first]);
      auto b = std::uint8_t(g[m.pairs[i].second]);
      if (a > b) std::swap(a, b);
      image[i] = {a, b};
    }
    best = std::min(best, encode_matching(image));
  }
  return best;
}

/// g applied to an output set: {g(v) : v in s} with bit g(w) of g(v) =
/// bit w of v.
OutputSet permute_state(const OutputSet& s,
                        const std::vector<wire_t>& g) {
  OutputSet out;
  out = OutputSet::full(s.width());
  for (std::uint64_t& w : out.words()) w = 0;
  const auto words = s.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const std::uint64_t v =
          w * 64 + std::uint64_t(std::countr_zero(word));
      word &= word - 1;
      std::uint64_t gv = 0;
      for (wire_t bit = 0; bit < s.width(); ++bit)
        if ((v >> bit) & 1u) gv |= std::uint64_t{1} << g[bit];
      out.words()[gv / 64] |= std::uint64_t{1} << (gv % 64);
    }
  }
  return out;
}

std::vector<LevelOp> matching_ops(const Matching& m) {
  std::vector<LevelOp> ops;
  ops.reserve(m.pairs.size());
  for (const auto& [lo, hi] : m.pairs) ops.push_back({lo, hi});
  return ops;
}

}  // namespace

std::vector<std::vector<wire_t>> first_layer_stabilizer(wire_t n) {
  const wire_t pairs = n / 2;
  std::vector<std::vector<wire_t>> group;
  std::vector<wire_t> sigma(pairs);
  std::iota(sigma.begin(), sigma.end(), 0u);
  // Pair permutations in lexicographic order (identity first), crossed
  // with every within-pair swap pattern (no swaps first) - so
  // group.front() is the identity relabeling.
  do {
    for (std::uint32_t swaps = 0;
         swaps < (std::uint32_t{1} << pairs); ++swaps) {
      std::vector<wire_t> g(n);
      for (wire_t i = 0; i < pairs; ++i) {
        const wire_t s = (swaps >> i) & 1u;
        g[2 * i] = 2 * sigma[i] + s;
        g[2 * i + 1] = 2 * sigma[i] + 1 - s;
      }
      if (n % 2 == 1) g[n - 1] = n - 1;  // lone wire stays put
      group.push_back(std::move(g));
    }
  } while (std::next_permutation(sigma.begin(), sigma.end()));
  return group;
}

PrefixGenOptions default_prefix_options(wire_t n) {
  PrefixGenOptions options;
  options.canonicalize = n <= 10;
  options.relabel_subsume = n <= 8;
  return options;
}

std::vector<TwoLayerPrefix> generate_two_layer_prefixes(
    const LevelSpace& space, const PrefixGenOptions& options,
    PrefixGenReport* report) {
  PrefixGenReport local;
  PrefixGenReport& rep = report != nullptr ? *report : local;
  rep = PrefixGenReport{};

  const wire_t n = space.width();
  std::vector<TwoLayerPrefix> kept;
  if (n < 2) return kept;

  OutputSet s1 = OutputSet::full(n);
  std::vector<std::uint64_t> scratch(space.set_words());
  space.apply_matching(s1, space.matchings()[space.first_layer_id()],
                       scratch);
  const PairSet useful = space.useful_pairs(s1);

  const std::vector<std::vector<wire_t>> group =
      options.canonicalize || options.relabel_subsume
          ? first_layer_stabilizer(n)
          : std::vector<std::vector<wire_t>>{};

  std::unordered_set<std::uint64_t> seen_orbits;
  for (std::size_t mi = 0; mi < space.matchings().size(); ++mi) {
    const Matching& m = space.matchings()[mi];
    ++rep.second_layer_candidates;
    // Useless filter: a comparator with no movers in S1 leaves the state
    // of the sub-matching without it, which is enumerated separately (or
    // is the empty second layer, i.e. a shallower network).
    bool useless = false;
    for (std::uint16_t id : m.pair_ids)
      if (!useful.test(id)) {
        useless = true;
        break;
      }
    if (useless) {
      ++rep.useless_filtered;
      continue;
    }
    if (options.canonicalize &&
        !seen_orbits.insert(canonical_key(m, group)).second) {
      ++rep.relabel_duplicates;
      continue;
    }
    TwoLayerPrefix p;
    p.second_layer_id = mi;
    p.state = s1;
    space.apply_matching(p.state, m, scratch);
    OrderRelation rel(n);
    rel.apply_level(matching_ops(space.matchings()[space.first_layer_id()]));
    rel.apply_level(matching_ops(m));
    p.invariant_fp = rel.invariant_fingerprint();
    kept.push_back(std::move(p));
  }

  // Deterministic downstream order: smallest output sets first (the best
  // existence-beam candidates), matching id as tie-break.
  std::stable_sort(kept.begin(), kept.end(),
                   [](const TwoLayerPrefix& a, const TwoLayerPrefix& b) {
                     const std::size_t ca = a.state.count();
                     const std::size_t cb = b.state.count();
                     if (ca != cb) return ca < cb;
                     return a.second_layer_id < b.second_layer_id;
                   });

  if (options.relabel_subsume && !kept.empty()) {
    // Drop any prefix whose state contains a group-permuted image of an
    // earlier survivor's state: a completion of the bigger state yields,
    // after conjugating and untangling, an equal-depth completion of the
    // smaller one (docs/search.md). Checking survivors only is enough
    // because image-subsumption composes through the group.
    std::vector<TwoLayerPrefix> survivors;
    std::vector<std::vector<OutputSet>> images;
    for (TwoLayerPrefix& p : kept) {
      bool subsumed = false;
      for (std::size_t a = 0; a < survivors.size() && !subsumed; ++a)
        for (const OutputSet& img : images[a])
          if (img.subset_of(p.state)) {
            subsumed = true;
            break;
          }
      if (subsumed) {
        ++rep.relabel_subsumed;
        continue;
      }
      images.emplace_back();
      images.back().reserve(group.size());
      for (const auto& g : group)
        images.back().push_back(permute_state(p.state, g));
      survivors.push_back(std::move(p));
    }
    kept = std::move(survivors);
  }

  rep.kept = kept.size();
  return kept;
}

std::vector<ComparatorNetwork> two_layer_prefix_networks(wire_t n) {
  const LevelSpace space(n);
  const auto prefixes =
      generate_two_layer_prefixes(space, default_prefix_options(n));
  std::vector<ComparatorNetwork> nets;
  nets.reserve(prefixes.size());
  for (const TwoLayerPrefix& p : prefixes) {
    ComparatorNetwork net(n);
    Level first;
    for (const auto& [lo, hi] :
         space.matchings()[space.first_layer_id()].pairs)
      first.gates.emplace_back(lo, hi, GateOp::CompareAsc);
    net.add_level(std::move(first));
    Level second;
    for (const auto& [lo, hi] : space.matchings()[p.second_layer_id].pairs)
      second.gates.emplace_back(lo, hi, GateOp::CompareAsc);
    net.add_level(std::move(second));
    nets.push_back(std::move(net));
  }
  return nets;
}

}  // namespace shufflebound
