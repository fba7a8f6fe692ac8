#include "corpus.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <stdexcept>

#include "adversary/certificate.hpp"
#include "analysis/sortedness.hpp"
#include "core/bitparallel.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/rdn_io.hpp"
#include "networks/shuffle.hpp"
#include "perm/permutation.hpp"
#include "util/bits.hpp"

namespace perfbench {

using namespace shufflebound;

namespace {

/// Bitonic sorter with every comparator ascending: each merge block of
/// size k first compares mirrored pairs (b+i, b+k-1-i), then half-cleans.
/// All-ascending sorters stay sorters when cut to their first m wires.
ComparatorNetwork ascending_bitonic(wire_t n) {
  ComparatorNetwork net(n);
  for (wire_t k = 2; k <= n; k *= 2) {
    Level flip;
    for (wire_t b = 0; b < n; b += k)
      for (wire_t i = 0; i < k / 2; ++i)
        flip.gates.emplace_back(b + i, b + k - 1 - i, GateOp::CompareAsc);
    net.add_level(std::move(flip));
    for (wire_t j = k / 4; j >= 1; j /= 2) {
      Level clean;
      for (wire_t b = 0; b < n; b += 2 * j)
        for (wire_t i = 0; i < j; ++i)
          clean.gates.emplace_back(b + i, b + i + j, GateOp::CompareAsc);
      net.add_level(std::move(clean));
    }
  }
  return net;
}

/// Keeps wires [lo, lo + m): with -infinity on the cut wires below and
/// +infinity on those above, every comparator touching a cut wire is a
/// no-op in an all-ascending network, so any window of a sorter sorts.
ComparatorNetwork prune(const ComparatorNetwork& net, wire_t lo, wire_t m) {
  ComparatorNetwork out(m);
  for (const Level& level : net.levels()) {
    Level kept;
    for (const Gate& g : level.gates)
      if (g.lo >= lo && g.hi < lo + m) kept.gates.emplace_back(g.lo - lo, g.hi - lo, g.op);
    if (!kept.empty()) out.add_level(std::move(kept));
  }
  return out;
}

}  // namespace

ComparatorNetwork base_sorter(Family family, wire_t n, wire_t offset) {
  switch (family) {
    case Family::Bitonic: return bitonic_sorting_network(n);
    case Family::Oem: return odd_even_mergesort_network(n);
    case Family::Brick: return brick_sorter(n);
    case Family::BitonicPruned:
      return prune(ascending_bitonic(kPrunedWidth), offset, n);
    case Family::OemPruned:
      return prune(odd_even_mergesort_network(kPrunedWidth), offset, n);
    default: break;
  }
  throw std::logic_error("base_sorter: not a sorter family");
}

namespace {

ComparatorNetwork apply_mod(ComparatorNetwork net, const Recipe& r) {
  switch (r.mod) {
    case Mod::RedundantTail:
      for (std::size_t copy = 0; copy <= r.level; ++copy)
        net.add_level({Gate(r.a, r.b, GateOp::CompareAsc)});
      return net;
    case Mod::Remove:
      return drop_one_comparator(net, r.a);
    case Mod::Insert: {
      ComparatorNetwork out(net.width());
      for (std::size_t l = 0; l < net.depth(); ++l) {
        if (l == r.level) out.add_level({Gate(r.a, r.b, GateOp::CompareAsc)});
        out.add_level(net.level(l));
      }
      return out;
    }
  }
  return net;
}

}  // namespace

Network build(const Recipe& r) {
  if (r.family == Family::Shuffle) {
    Prng rng(r.seed);
    return random_shuffle_network(r.n, r.depth, rng);
  }
  if (r.family == Family::Butterfly) {
    Prng rng(r.seed);
    const std::uint32_t lg = log2_exact(r.n);
    return make_iterated_rdn(
        r.n, r.depth, [&](std::size_t) { return butterfly_rdn(lg); },
        [&](std::size_t) { return random_permutation(r.n, rng); });
  }
  return apply_mod(base_sorter(r.family, r.n, r.offset), r);
}

std::string text_of(const Network& net) {
  return std::visit([](const auto& model) { return to_text(model); }, net);
}

Circuit circuit_of(const Network& net) {
  if (const auto* circuit = std::get_if<ComparatorNetwork>(&net)) return *circuit;
  const auto* reg = std::get_if<RegisterNetwork>(&net);
  FlattenedNetwork flat =
      reg != nullptr ? register_to_circuit(*reg) : std::get<IteratedRdn>(net).flatten();
  Circuit out(std::move(flat.circuit));
  const auto image = flat.register_to_wire.image();
  out.order.assign(image.begin(), image.end());
  return out;
}

std::string request_line(const std::string& id, JobKind kind,
                         const std::string& network_text, std::uint64_t trials,
                         std::uint64_t seed) {
  JsonValue line = JsonValue::object();
  line.set("id", id);
  line.set("op", job_kind_name(kind));
  line.set("network", network_text);
  if (kind == JobKind::CountSorted) {
    line.set("trials", trials);
    line.set("seed", seed);
  }
  return line.dump();
}

// ----------------------------------------------------- reference answers --

namespace {

/// Packed bit w of the 64 consecutive 0/1 vectors starting at `base`.
std::uint64_t vector_word(wire_t w, std::uint64_t base) {
  constexpr std::uint64_t kLow[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  if (w < 6) return kLow[w];
  return (base >> w & 1u) != 0 ? ~0ull : 0ull;
}

/// Calls visit(base, count, outputs) for every 64-vector block of {0,1}^n
/// after the reference evaluator ran it, outputs[p] being output position
/// p; stops when visit returns false.
template <typename Visit>
void reference_sweep(const Circuit& net, Visit&& visit,
                     std::uint64_t limit = ~std::uint64_t{0}) {
  const wire_t n = net.net.width();
  const std::uint64_t total = std::min(std::uint64_t{1} << n, limit);
  std::vector<std::uint64_t> words(n);
  std::vector<std::uint64_t> outputs(n);
  for (std::uint64_t base = 0; base < total; base += 64) {
    for (wire_t w = 0; w < n; ++w) words[w] = vector_word(w, base);
    evaluate_packed(net.net, words);
    for (wire_t p = 0; p < n; ++p) outputs[p] = words[net.order.empty() ? p : net.order[p]];
    if (!visit(base, std::min<std::uint64_t>(64, total - base), outputs)) return;
  }
}

/// Evaluates the circuit on one input and tells whether its outputs, read
/// in output order, are sorted.
bool sorts_input(const Circuit& net, std::vector<wire_t> values) {
  net.net.evaluate_in_place(std::span<wire_t>(values));
  for (std::size_t p = 0; p + 1 < values.size(); ++p) {
    const wire_t lo = net.order.empty() ? values[p] : values[net.order[p]];
    const wire_t hi = net.order.empty() ? values[p + 1] : values[net.order[p + 1]];
    if (hi < lo) return false;
  }
  return true;
}

}  // namespace

std::optional<std::uint64_t> reference_failing_vector(const Circuit& net,
                                                      std::uint64_t limit) {
  std::optional<std::uint64_t> failing;
  reference_sweep(net, [&](std::uint64_t base, std::uint64_t count,
                           const std::vector<std::uint64_t>& out) {
    std::uint64_t bad = 0;  // a 1 above a 0 on adjacent output wires
    for (std::size_t w = 0; w + 1 < out.size(); ++w) bad |= out[w] & ~out[w + 1];
    if (count < 64) bad &= (std::uint64_t{1} << count) - 1;
    if (bad == 0) return true;
    failing = base + static_cast<std::uint64_t>(std::countr_zero(bad));
    return false;
  }, limit);
  return failing;
}

namespace {

constexpr std::uint64_t kUnset = ~0ull;

/// kLowWeight[j]: the vectors s of a 64-vector block whose low six bits
/// have weight j. The block starts at a multiple of 64, so vector s of the
/// block at `base` has weight popcount(base) + popcount(s).
constexpr std::array<std::uint64_t, 7> kLowWeight = [] {
  std::array<std::uint64_t, 7> masks{};
  for (unsigned s = 0; s < 64; ++s) masks[static_cast<std::size_t>(std::popcount(s))] |= std::uint64_t{1} << s;
  return masks;
}();

/// Fills expected[k] with the output image of the inputs of weight k below
/// `limit`; false as soon as two inputs of equal weight disagree. A block's
/// inputs of one weight agree when every output wire is 1 on all or none
/// of them.
bool relabel_table(const Circuit& net, std::uint64_t limit,
                   std::vector<std::uint64_t>& expected) {
  const wire_t n = net.net.width();
  expected.assign(n + 1, kUnset);
  bool consistent = true;
  reference_sweep(net, [&](std::uint64_t base, std::uint64_t count,
                           const std::vector<std::uint64_t>& out) {
    const std::uint64_t live = count < 64 ? (std::uint64_t{1} << count) - 1 : ~0ull;
    const auto high = static_cast<std::size_t>(std::popcount(base));
    for (std::size_t j = 0; j < kLowWeight.size(); ++j) {
      const std::uint64_t members = kLowWeight[j] & live;
      if (members == 0) continue;
      std::uint64_t image = 0;
      for (wire_t w = 0; w < n; ++w) {
        const std::uint64_t ones = out[w] & members;
        if (ones != 0 && ones != members) {
          consistent = false;
          return false;
        }
        if (ones != 0) image |= std::uint64_t{1} << w;
      }
      std::uint64_t& seen = expected[high + j];
      if (seen == kUnset) {
        seen = image;
      } else if (seen != image) {
        consistent = false;
        return false;
      }
    }
    return true;
  }, limit);
  return consistent;
}

}  // namespace

bool reference_relabel_diverges(const Circuit& net, std::uint64_t limit) {
  std::vector<std::uint64_t> expected;
  return !relabel_table(net, limit, expected);
}

std::optional<std::vector<wire_t>> reference_relabel_ranks(const Circuit& net) {
  const wire_t n = net.net.width();
  std::vector<std::uint64_t> expected;
  if (!relabel_table(net, ~std::uint64_t{0}, expected)) return std::nullopt;
  std::vector<wire_t> ranks(n);
  for (wire_t k = 0; k < n; ++k) {
    const std::uint64_t gained = expected[k + 1] & ~expected[k];
    if ((expected[k] & ~expected[k + 1]) != 0 || std::popcount(gained) != 1)
      return std::nullopt;
    ranks[static_cast<std::size_t>(std::countr_zero(gained))] = n - 1 - k;
  }
  return ranks;
}

std::uint64_t reference_count_sorted(const Circuit& net, std::uint64_t trials,
                                     std::uint64_t seed) {
  std::uint64_t sorted = 0;
  for (std::uint64_t index = 0; index < trials; ++index) {
    std::uint64_t mix = seed ^ (0xA0761D6478BD642Full * (index + 1));
    Prng rng(splitmix64(mix));
    const Permutation input = random_permutation(net.net.width(), rng);
    if (sorts_input(net, std::vector<wire_t>(input.image().begin(), input.image().end())))
      ++sorted;
  }
  return sorted;
}

// --------------------------------------------------------------- checks --

namespace {

std::string field(const JsonValue& payload, const char* key) {
  const JsonValue* v = payload.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Replays one 0/1 vector (bit w = input on wire w) through the circuit.
bool replays_unsorted(const Circuit& net, std::uint64_t vector) {
  std::vector<wire_t> values(net.net.width());
  for (wire_t w = 0; w < net.net.width(); ++w)
    values[w] = static_cast<wire_t>(vector >> w & 1u);
  return !sorts_input(net, std::move(values));
}

}  // namespace

Verdict check_certify(const JsonValue& payload, const Circuit& net,
                      const std::optional<std::uint64_t>& expected_failing) {
  const std::string verdict = field(payload, "verdict");
  if (!expected_failing) {
    if (verdict == "sorting") return std::nullopt;
    return "certify: expected sorting, got '" + verdict + "'";
  }
  if (verdict == "not-sorting") {
    const std::string got = field(payload, "failing_vector");
    if (got != hex(*expected_failing))
      return "certify: failing vector " + got + ", reference minimum " +
             hex(*expected_failing);
    if (!replays_unsorted(net, *expected_failing))
      return "certify: failing vector " + got + " replays sorted";
    return std::nullopt;
  }
  if (verdict == "sorting-up-to-relabel") {
    const auto ranks = reference_relabel_ranks(net);
    const JsonValue* got = payload.find("ranks");
    if (!ranks || got == nullptr || !got->is_array() ||
        got->items().size() != ranks->size())
      return std::string("certify: unconfirmed sorting-up-to-relabel");
    for (std::size_t i = 0; i < ranks->size(); ++i)
      if (got->items()[i].as_uint() != (*ranks)[i])
        return std::string("certify: relabel ranks differ from the reference");
    return std::nullopt;
  }
  return "certify: expected not-sorting " + hex(*expected_failing) +
         ", got '" + verdict + "'";
}

Verdict check_refute(const JsonValue& payload, const Network& net, bool no_claim_ok) {
  const std::string status = field(payload, "status");
  if (no_claim_ok && status == "no-claim") return std::nullopt;
  if (status != "refuted") return "refute: expected refuted, got '" + status + "'";
  try {
    const Certificate cert = certificate_from_text(field(payload, "certificate"));
    const CertificateVerdict verdict =
        std::holds_alternative<RegisterNetwork>(net)
            ? verify_certificate(std::get<RegisterNetwork>(net), cert)
            : verify_certificate(circuit_of(net).net, cert);
    if (!verdict.accepted())
      return std::string("refute: certificate rejected by verify_certificate");
  } catch (const std::exception& e) {
    return std::string("refute: unreadable certificate: ") + e.what();
  }
  return std::nullopt;
}

}  // namespace perfbench
