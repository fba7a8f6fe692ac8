#include "adversary/sweep.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "networks/rdn.hpp"
#include "obs/obs.hpp"
#include "perm/permutation.hpp"
#include "sim/compiled_net.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {

SweepFamily sweep_family_from_name(const std::string& name) {
  if (name == "butterfly") return SweepFamily::ButterflyRandomPerm;
  if (name == "shuffle") return SweepFamily::ButterflyShuffle;
  if (name == "random") return SweepFamily::RandomRdn;
  throw std::invalid_argument(
      "unknown sweep family '" + name +
      "' (expected butterfly, shuffle, or random)");
}

const char* sweep_family_name(SweepFamily family) {
  switch (family) {
    case SweepFamily::ButterflyRandomPerm: return "butterfly";
    case SweepFamily::ButterflyShuffle: return "shuffle";
    case SweepFamily::RandomRdn: return "random";
  }
  return "?";
}

namespace {

/// Every (lg, d) point draws from its own generator, derived from the
/// sweep seed by mixing - adding or removing points never shifts the
/// randomness of the others.
Prng point_rng(std::uint64_t seed, std::uint32_t lg, std::size_t d) {
  std::uint64_t state = seed;
  state ^= splitmix64(state) ^ ((static_cast<std::uint64_t>(lg) << 32) |
                                static_cast<std::uint64_t>(d));
  return Prng(splitmix64(state));
}

IteratedRdn build_network(SweepFamily family, wire_t n, std::size_t d,
                          Prng& rng) {
  const std::uint32_t lg = log2_exact(n);
  switch (family) {
    case SweepFamily::ButterflyRandomPerm:
      return make_iterated_rdn(
          n, d, [&](std::size_t) { return butterfly_rdn(lg); },
          [&](std::size_t) { return random_permutation(n, rng); });
    case SweepFamily::ButterflyShuffle:
      return make_iterated_rdn(
          n, d, [&](std::size_t) { return butterfly_rdn(lg); },
          [&](std::size_t) { return shuffle_permutation(n); });
    case SweepFamily::RandomRdn:
      return make_iterated_rdn(
          n, d, [&](std::size_t) { return random_rdn(lg, rng); },
          [&](std::size_t) { return random_permutation(n, rng); });
  }
  throw std::invalid_argument("build_network: bad family");
}

}  // namespace

std::vector<SweepPoint> run_sweep(const SweepConfig& config) {
  if (config.lg_min < 2 || config.lg_min > config.lg_max ||
      config.lg_max >= 8 * sizeof(wire_t))
    throw std::invalid_argument("run_sweep: bad lg range");
  if (config.max_depth == 0)
    throw std::invalid_argument("run_sweep: max_depth must be >= 1");

  RefuteOptions refute_options;
  refute_options.progress = config.progress;

  std::vector<SweepPoint> points;
  for (std::uint32_t lg = config.lg_min; lg <= config.lg_max; ++lg) {
    SB_OBS_COUNT("sweep.points", 1);
    const wire_t n = static_cast<wire_t>(1) << lg;
    SweepPoint point;
    point.n = n;
    point.lg = lg;

    std::optional<RefutationResult> best;
    std::optional<IteratedRdn> best_net;
    for (std::size_t d = 1; d <= config.max_depth; ++d) {
      if (config.progress) config.progress();
      Prng rng = point_rng(config.seed, lg, d);
      IteratedRdn net = build_network(config.family, n, d, rng);
      RefutationResult result = refute(net, refute_options);
      if (result.status != RefutationStatus::Refuted) break;
      point.refuted_depth = d;
      point.survivors = result.adversary.survivors.size();
      best = std::move(result);
      best_net = std::move(net);
    }
    if (best) {
      point.paper_bound = theorem41_bound(n, point.refuted_depth);
      const CompiledNetwork compiled = compile(*best_net);
      const std::vector<Witness> witnesses = enumerate_witnesses(
          best->adversary, config.witnesses, config.pool);
      const std::vector<WitnessCheck> checks = check_witnesses(
          compiled, witnesses, config.pool, config.progress);
      point.witnesses_checked = checks.size();
      for (const WitnessCheck& check : checks)
        if (check.refutes_sorting()) ++point.witnesses_refuting;

      // Round-trip the certificate through the v2 chunked stream and
      // re-verify the parsed copy - the sweep exercises the exact artifact
      // CI uploads and diffs.
      const Certificate& cert = *best->certificate;
      const std::string v1 = to_text(cert);
      const std::string v2 = to_chunked_text(cert);
      point.cert_v2_ratio =
          static_cast<double>(v2.size()) / static_cast<double>(v1.size());
      const Certificate parsed = certificate_from_text(v2);
      point.certificate_roundtrip_ok =
          to_chunked_text(parsed) == v2 &&
          check_witness(compiled, parsed.witness).refutes_sorting();
    }
    points.push_back(point);
  }
  return points;
}

namespace {

std::string fmt_double(double v) {
  std::ostringstream out;
  out << std::setprecision(6) << v;
  return out.str();
}

}  // namespace

std::string sweep_to_json(const SweepConfig& config,
                          const std::vector<SweepPoint>& points) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"experiment\": \"E21\",\n";
  out << "  \"family\": \"" << sweep_family_name(config.family) << "\",\n";
  out << "  \"seed\": " << config.seed << ",\n";
  out << "  \"lg_min\": " << config.lg_min << ",\n";
  out << "  \"lg_max\": " << config.lg_max << ",\n";
  out << "  \"max_depth\": " << config.max_depth << ",\n";
  out << "  \"witness_cap\": " << config.witnesses << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    out << "    {\"n\": " << p.n << ", \"lg\": " << p.lg
        << ", \"refuted_depth\": " << p.refuted_depth
        << ", \"survivors\": " << p.survivors
        << ", \"paper_bound\": " << fmt_double(p.paper_bound)
        << ", \"witnesses_checked\": " << p.witnesses_checked
        << ", \"witnesses_refuting\": " << p.witnesses_refuting
        << ", \"certificate_roundtrip_ok\": "
        << (p.certificate_roundtrip_ok ? "true" : "false")
        << ", \"cert_v2_ratio\": " << fmt_double(p.cert_v2_ratio) << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string sweep_to_table(const std::vector<SweepPoint>& points) {
  std::ostringstream out;
  out << "      n  depth  survivors   paper-bound  witnesses  cert-ok  "
         "v2/v1\n";
  for (const SweepPoint& p : points) {
    out << std::setw(7) << p.n << "  " << std::setw(5) << p.refuted_depth
        << "  " << std::setw(9) << p.survivors << "  " << std::setw(12)
        << fmt_double(p.paper_bound) << "  " << std::setw(6)
        << p.witnesses_refuting << "/" << p.witnesses_checked << "  "
        << std::setw(7) << (p.certificate_roundtrip_ok ? "yes" : "NO") << "  "
        << fmt_double(p.cert_v2_ratio) << "\n";
  }
  return out.str();
}

}  // namespace shufflebound
