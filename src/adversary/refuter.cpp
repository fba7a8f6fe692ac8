#include "adversary/refuter.hpp"

#include <functional>
#include <sstream>

#include "obs/obs.hpp"
#include "sim/compiled_net.hpp"
#include "util/bits.hpp"

namespace shufflebound {

namespace {

AdversaryOptions adversary_options(const RefuteOptions& options) {
  AdversaryOptions out;
  out.k = options.k;
  out.progress = options.progress;
  return out;
}

RefutationResult finish(
    AdversaryResult adversary, const RefuteOptions& options,
    const std::function<WitnessReplay(const Witness&)>& replay,
    std::string scope_note) {
  RefutationResult result;
  std::ostringstream detail;
  detail << scope_note << "; survivors " << adversary.survivors.size()
         << ", theorem floor " << adversary.theorem_bound;
  result.detail = detail.str();
  result.adversary = std::move(adversary);
  std::optional<Certificate> cert;
  {
    SB_OBS_SPAN("refuter", "witness_build");
    SB_OBS_TIME_COUNT("refuter.phase_us.witness_build");
    cert = make_certificate(result.adversary);
  }
  if (!cert) {
    result.status = RefutationStatus::TooFewSurvivors;
    return result;
  }
  WitnessReplay verified;
  {
    SB_OBS_SPAN("refuter", "witness_replay");
    SB_OBS_TIME_COUNT("refuter.phase_us.witness_replay");
    if (options.progress) options.progress();
    verified = replay(cert->witness);
  }
  if (!verified.check.refutes_sorting()) {
    // Should be impossible; surface loudly rather than hand out a bogus
    // certificate.
    throw std::logic_error("refute: certificate failed self-verification");
  }
  result.status = RefutationStatus::Refuted;
  result.certificate = std::move(cert);
  result.output_pi = std::move(verified.output_pi);
  result.output_pi_prime = std::move(verified.output_pi_prime);
  return result;
}

}  // namespace

RefutationResult refute(const IteratedRdn& net, const RefuteOptions& options) {
  SB_OBS_SPAN("refuter", "refute");
  SB_OBS_TIME_COUNT("refuter.phase_us.refute");
  std::ostringstream note;
  note << "iterated RDN, " << net.stage_count() << " stage(s)";
  return finish(
      run_adversary(net, adversary_options(options)), options,
      [&](const Witness& w) {
        // Verify through the compiled kernel: the certificate's validity
        // must not depend on the same evaluator the adversary ran on.
        return replay_witness(compile(net), w);
      },
      note.str());
}

RefutationResult refute(const RegisterNetwork& net,
                        const RefuteOptions& options) {
  SB_OBS_SPAN("refuter", "refute");
  SB_OBS_TIME_COUNT("refuter.phase_us.refute");
  if (!is_pow2(net.width()) || net.width() < 4) {
    RefutationResult result;
    result.detail = "width must be a power of two >= 4";
    return result;
  }
  IteratedRdn rdn;
  {
    SB_OBS_SPAN("refuter", "slice");
    SB_OBS_TIME_COUNT("refuter.phase_us.slice");
    if (!net.is_shuffle_based()) {
      RefutationResult result;
      result.detail =
          "register network is not shuffle-based; the bound addresses the "
          "shuffle-only (strict ascend) class";
      return result;
    }
    rdn = shuffle_to_iterated_rdn(net, 0, ShuffleCheck::AlreadyChecked);
  }
  std::ostringstream note;
  note << "shuffle-based network, " << rdn.stage_count() << " chunk(s) of lg n";
  return finish(
      run_adversary(rdn, adversary_options(options)), options,
      [&](const Witness& w) { return replay_witness(compile(net), w); },
      note.str());
}

RefutationResult refute(const ComparatorNetwork& net,
                        const RefuteOptions& options) {
  SB_OBS_SPAN("refuter", "refute");
  SB_OBS_TIME_COUNT("refuter.phase_us.refute");
  RefutationResult out_of_scope;
  if (!is_pow2(net.width()) || net.width() < 4) {
    out_of_scope.detail = "width must be a power of two >= 4";
    return out_of_scope;
  }
  const std::uint32_t d = log2_exact(net.width());
  IteratedRdn rdn(net.width());
  std::size_t chunks = 0;
  {
    SB_OBS_SPAN("refuter", "slice");
    SB_OBS_TIME_COUNT("refuter.phase_us.slice");
    for (std::size_t first = 0; first < net.depth() || chunks == 0;
         first += d) {
      const std::size_t last = std::min(first + d, net.depth());
      ComparatorNetwork slice = net.slice(first, last);
      while (slice.depth() < d) slice.add_level(Level{});
      const auto tree = recognize_rdn(slice);
      if (!tree) {
        std::ostringstream note;
        note << "levels [" << first << ", " << last
             << ") do not form a recognizable reverse delta network";
        out_of_scope.detail = note.str();
        return out_of_scope;
      }
      rdn.add_stage({Permutation::identity(net.width()),
                     RdnChunk{std::move(slice), *tree}});
      ++chunks;
      if (last >= net.depth()) break;
    }
  }
  std::ostringstream note;
  note << "circuit sliced into " << chunks << " recognized RDN chunk(s)";
  return finish(
      run_adversary(rdn, adversary_options(options)), options,
      [&](const Witness& w) { return replay_witness(compile(net), w); },
      note.str());
}

RefutationResult refute(const IteratedRdn& net, std::uint32_t k) {
  RefuteOptions options;
  options.k = k;
  return refute(net, options);
}

RefutationResult refute(const RegisterNetwork& net, std::uint32_t k) {
  RefuteOptions options;
  options.k = k;
  return refute(net, options);
}

RefutationResult refute(const ComparatorNetwork& net, std::uint32_t k) {
  RefuteOptions options;
  options.k = k;
  return refute(net, options);
}

}  // namespace shufflebound
