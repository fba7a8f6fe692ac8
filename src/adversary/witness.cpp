#include "adversary/witness.hpp"

#include <stdexcept>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {

std::optional<Witness> extract_witness(const AdversaryResult& result) {
  if (result.survivors.size() < 2) return std::nullopt;
  Witness w;
  w.w0 = result.survivors[0];
  w.w1 = result.survivors[1];
  w.pi = linearize(result.input_pattern, std::make_pair(w.w0, w.w1));
  w.m = w.pi[w.w0];
  if (w.pi[w.w1] != w.m + 1)
    throw std::logic_error("extract_witness: linearize adjacency violated");
  std::vector<wire_t> image(w.pi.image().begin(), w.pi.image().end());
  std::swap(image[w.w0], image[w.w1]);
  w.pi_prime = Permutation(std::move(image));
  return w;
}

namespace {

Witness witness_for_pair(const AdversaryResult& result, wire_t w0, wire_t w1) {
  Witness w;
  w.w0 = w0;
  w.w1 = w1;
  w.pi = linearize(result.input_pattern, std::make_pair(w0, w1));
  w.m = w.pi[w0];
  std::vector<wire_t> image(w.pi.image().begin(), w.pi.image().end());
  std::swap(image[w0], image[w1]);
  w.pi_prime = Permutation(std::move(image));
  return w;
}

}  // namespace

std::vector<Witness> enumerate_witnesses(const AdversaryResult& result,
                                         std::size_t limit, ThreadPool* pool) {
  // Enumerate the pair indices first (cheap), then build the witnesses -
  // each an O(n log n) linearize, the measured cost - by index, so the
  // parallel path fills the same slots the serial loop would.
  std::vector<std::pair<wire_t, wire_t>> pairs;
  const auto& survivors = result.survivors;
  for (std::size_t a = 0; a < survivors.size() && pairs.size() < limit; ++a) {
    for (std::size_t b = a + 1; b < survivors.size() && pairs.size() < limit;
         ++b) {
      pairs.emplace_back(survivors[a], survivors[b]);
    }
  }
  std::vector<Witness> witnesses(pairs.size());
  const auto build = [&](std::size_t i) {
    witnesses[i] = witness_for_pair(result, pairs[i].first, pairs[i].second);
  };
  if (pool != nullptr && pairs.size() > 1) {
    pool->parallel_for(0, pairs.size(), build);
  } else {
    for (std::size_t i = 0; i < pairs.size(); ++i) build(i);
  }
  return witnesses;
}

namespace {

/// Runs `input` through the network with an O(1) pair recorder tracking
/// the witness values {m, m+1} - the only pair judge() ever queries.
template <typename Net>
std::vector<wire_t> run_with_pair_recorder(const Net& net,
                                           const Permutation& input,
                                           PairComparisonRecorder& recorder) {
  std::vector<wire_t> values(input.image().begin(), input.image().end());
  if constexpr (std::is_same_v<Net, ComparatorNetwork>) {
    net.evaluate_in_place(std::span<wire_t>(values), std::less<wire_t>{},
                          recorder);
  } else {
    net.evaluate_in_place(values, std::less<wire_t>{}, recorder);
  }
  return values;
}

WitnessCheck judge(const Witness& w, bool pair_compared_pi,
                   bool pair_compared_prime,
                   const std::vector<wire_t>& out_pi,
                   const std::vector<wire_t>& out_prime) {
  WitnessCheck check;
  check.never_compared = !pair_compared_pi && !pair_compared_prime;

  const auto swap_pair = [&](wire_t v) -> wire_t {
    if (v == w.m) return w.m + 1;
    if (v == w.m + 1) return w.m;
    return v;
  };
  check.same_permutation = true;
  for (wire_t pos = 0; pos < w.pi.size(); ++pos) {
    if (out_prime[pos] != swap_pair(out_pi[pos])) {
      check.same_permutation = false;
      break;
    }
  }
  return check;
}

template <typename Net>
WitnessCheck check_impl(const Net& net, const Witness& w) {
  PairComparisonRecorder rec_pi(w.m, w.m + 1);
  PairComparisonRecorder rec_prime(w.m, w.m + 1);
  const std::vector<wire_t> out_pi = run_with_pair_recorder(net, w.pi, rec_pi);
  const std::vector<wire_t> out_prime =
      run_with_pair_recorder(net, w.pi_prime, rec_prime);
  return judge(w, rec_pi.compared(), rec_prime.compared(), out_pi, out_prime);
}

}  // namespace

WitnessCheck check_witness(const ComparatorNetwork& net, const Witness& w) {
  return check_impl(net, w);
}

WitnessCheck check_witness(const RegisterNetwork& net, const Witness& w) {
  return check_impl(net, w);
}

WitnessCheck check_witness(const IteratedRdn& net, const Witness& w) {
  return check_impl(net, w);
}

WitnessReplay replay_witness(const CompiledNetwork& net, const Witness& w) {
  SB_OBS_SPAN("refuter", "witness_check");
  SB_OBS_COUNT("refuter.witness_checks", 1);
  WitnessReplay replay;
  // The kernel indexes its buffers by the network's slots: a witness of
  // another width refutes nothing and is never run.
  if (w.pi.size() != net.width() || w.pi_prime.size() != net.width())
    return replay;
  PairComparisonRecorder rec_pi(w.m, w.m + 1);
  PairComparisonRecorder rec_prime(w.m, w.m + 1);
  replay.output_pi.assign(w.pi.image().begin(), w.pi.image().end());
  replay.output_pi_prime.assign(w.pi_prime.image().begin(),
                                w.pi_prime.image().end());
  std::vector<wire_t> scratch;
  net.apply_with_observer(replay.output_pi, scratch, rec_pi);
  net.apply_with_observer(replay.output_pi_prime, scratch, rec_prime);
  replay.check = judge(w, rec_pi.compared(), rec_prime.compared(),
                       replay.output_pi, replay.output_pi_prime);
  return replay;
}

WitnessCheck check_witness(const CompiledNetwork& net, const Witness& w) {
  return replay_witness(net, w).check;
}

std::vector<WitnessCheck> check_witnesses(const CompiledNetwork& net,
                                          std::span<const Witness> witnesses,
                                          ThreadPool* pool,
                                          const std::function<void()>& progress) {
  SB_OBS_COUNT("refuter.witness_batches", 1);
  if (progress) {
    for (std::size_t i = 0; i < witnesses.size(); ++i) progress();
  }
  std::vector<WitnessCheck> checks(witnesses.size());
  const auto check_one = [&](std::size_t i) {
    checks[i] = check_witness(net, witnesses[i]);
  };
  if (pool != nullptr && witnesses.size() > 1) {
    pool->parallel_for(0, witnesses.size(), check_one);
  } else {
    for (std::size_t i = 0; i < witnesses.size(); ++i) check_one(i);
  }
  return checks;
}

}  // namespace shufflebound
