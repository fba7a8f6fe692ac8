// Adversary pipeline: the pool-backed witness batch (enumeration and
// replay) must be bit-for-bit identical to the serial path, the v2
// chunked certificate stream must round-trip and fail closed on every
// kind of damage, exceptions thrown from the cooperative progress hook
// must propagate cleanly, and the per-phase wall-time counters must be
// populated when observability is on.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "adversary/certificate.hpp"
#include "adversary/refuter.hpp"
#include "adversary/sweep.hpp"
#include "adversary/witness.hpp"
#include "networks/rdn.hpp"
#include "networks/shuffle.hpp"
#include "obs/obs.hpp"
#include "perm/permutation.hpp"
#include "sim/compiled_net.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {
namespace {

/// Butterfly chunks behind seeded random permutations.
IteratedRdn sample_network(wire_t n, std::size_t d, std::uint64_t seed) {
  Prng rng(seed);
  return make_iterated_rdn(
      n, d, [&](std::size_t) { return butterfly_rdn(log2_exact(n)); },
      [&](std::size_t) { return random_permutation(n, rng); });
}

TEST(AdversaryParallel, WitnessBatchIdenticalToSerial) {
  ThreadPool pool(4);
  const IteratedRdn net = sample_network(128, 1, 11);
  const AdversaryResult result = run_adversary(net);
  const auto serial = enumerate_witnesses(result, 64, nullptr);
  const auto parallel = enumerate_witnesses(result, 64, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GE(serial.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].pi, parallel[i].pi);
    EXPECT_EQ(serial[i].pi_prime, parallel[i].pi_prime);
    EXPECT_EQ(serial[i].w0, parallel[i].w0);
    EXPECT_EQ(serial[i].w1, parallel[i].w1);
    EXPECT_EQ(serial[i].m, parallel[i].m);
  }
  const CompiledNetwork compiled = compile(net);
  const auto checks_serial = check_witnesses(compiled, serial, nullptr);
  const auto checks_parallel = check_witnesses(compiled, parallel, &pool);
  ASSERT_EQ(checks_serial.size(), checks_parallel.size());
  for (std::size_t i = 0; i < checks_serial.size(); ++i) {
    EXPECT_EQ(checks_serial[i].never_compared,
              checks_parallel[i].never_compared);
    EXPECT_EQ(checks_serial[i].same_permutation,
              checks_parallel[i].same_permutation);
    EXPECT_TRUE(checks_parallel[i].refutes_sorting());
  }
}

// ------------------------------------------------- v2 stream round-trip --

Certificate sample_certificate(wire_t n, std::size_t d, std::uint64_t seed) {
  const RefutationResult result = refute(sample_network(n, d, seed));
  EXPECT_EQ(result.status, RefutationStatus::Refuted);
  return *result.certificate;
}

TEST(ChunkedCertificate, RoundTripMultiChunk) {
  const Certificate cert = sample_certificate(256, 2, 21);
  // Tiny chunks force a multi-chunk stream even at modest n.
  const std::string text = to_chunked_text(cert, 64);
  EXPECT_TRUE(is_chunked_certificate_text(text));
  EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 6);
  const Certificate parsed = certificate_from_text(text);
  EXPECT_EQ(parsed.n, cert.n);
  EXPECT_EQ(parsed.pattern, cert.pattern);
  EXPECT_EQ(parsed.survivors, cert.survivors);
  EXPECT_EQ(parsed.witness.pi, cert.witness.pi);
  EXPECT_EQ(parsed.witness.pi_prime, cert.witness.pi_prime);
  EXPECT_EQ(parsed.witness.w0, cert.witness.w0);
  EXPECT_EQ(parsed.witness.w1, cert.witness.w1);
  EXPECT_EQ(parsed.witness.m, cert.witness.m);
  // Re-encoding the parsed copy reproduces the exact bytes.
  EXPECT_EQ(to_chunked_text(parsed, 64), text);
}

TEST(ChunkedCertificate, CompressesAgainstV1) {
  // The stream stores one permutation instead of two, as varints instead
  // of decimal text; base64 gives a third of that back. Net: ~0.55x at
  // n = 256, trending to ~0.50x by n = 4096.
  const Certificate cert = sample_certificate(256, 1, 22);
  EXPECT_LT(static_cast<double>(to_chunked_text(cert).size()),
            0.65 * static_cast<double>(to_text(cert).size()));
}

TEST(ChunkedCertificate, V1StillParses) {
  const Certificate cert = sample_certificate(64, 1, 23);
  const std::string v1 = to_text(cert);
  EXPECT_FALSE(is_chunked_certificate_text(v1));
  const Certificate parsed = certificate_from_text(v1);
  EXPECT_EQ(parsed.witness.pi, cert.witness.pi);
}

TEST(ChunkedCertificate, NonCanonicalWitnessRefused) {
  Certificate cert = sample_certificate(64, 1, 24);
  std::vector<wire_t> image(cert.witness.pi_prime.image().begin(),
                            cert.witness.pi_prime.image().end());
  std::swap(image[2], image[3]);  // no longer pi with the pair swapped
  cert.witness.pi_prime = Permutation(std::move(image));
  EXPECT_THROW(to_chunked_text(cert), std::invalid_argument);
}

TEST(ChunkedCertificate, DamageFailsClosed) {
  const Certificate cert = sample_certificate(128, 1, 25);
  const std::string good = to_chunked_text(cert, 96);
  ASSERT_NO_THROW(certificate_from_text(good));

  // Flip one payload byte (line 3 is the first base64 payload).
  {
    std::string bad = good;
    const std::size_t payload = bad.find('\n', bad.find("chunk ")) + 1;
    bad[payload] = bad[payload] == 'A' ? 'B' : 'A';
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
  // Truncate: drop the trailer.
  {
    std::string bad = good.substr(0, good.rfind("end "));
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
  // Truncate mid-stream: keep only the first chunk and the trailer.
  {
    const std::size_t second = good.find("chunk 1 ");
    ASSERT_NE(second, std::string::npos);
    std::string bad = good.substr(0, second) + good.substr(good.rfind("end "));
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
  // Length mismatch in a chunk header.
  {
    std::string bad = good;
    const std::size_t pos = bad.find(" 96 ");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 4, " 95 ");
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
  // Wrong whole-body CRC in the trailer.
  {
    std::string bad = good;
    const std::size_t crc = bad.rfind("crc ") + 4;
    bad[crc] = bad[crc] == '0' ? '1' : '0';
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
  // Reordered chunks (swap the seq numbers; payloads stay put).
  {
    std::string bad = good;
    const std::size_t c0 = bad.find("chunk 0 ");
    const std::size_t c1 = bad.find("chunk 1 ");
    ASSERT_NE(c1, std::string::npos);
    bad[c0 + 6] = '1';
    bad[c1 + 6] = '0';
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
  // Trailing garbage after the trailer.
  {
    EXPECT_THROW(certificate_from_text(good + "extra\n"),
                 std::invalid_argument);
  }
  // Chunk count mismatch in the trailer.
  {
    std::string bad = good;
    const std::size_t pos = bad.rfind("chunks ") + 7;
    bad[pos] = '9';
    EXPECT_THROW(certificate_from_text(bad), std::invalid_argument);
  }
}

// ------------------------------------------- cancellation + exceptions --

struct Cancelled {};

TEST(AdversaryParallel, ProgressExceptionPropagates) {
  const IteratedRdn net = sample_network(256, 2, 31);
  RefuteOptions options;
  int calls = 0;
  options.progress = [&] {
    if (++calls > 3) throw Cancelled{};
  };
  EXPECT_THROW(refute(net, options), Cancelled);
  // An aborted refute leaves nothing behind: the next run is unchanged.
  options.progress = {};
  const RefutationResult after = refute(net, options);
  EXPECT_EQ(after.status, RefutationStatus::Refuted);
  EXPECT_EQ(to_text(*after.certificate), to_text(*refute(net).certificate));

  // A batch replay aborted by its progress hook leaves the pool usable.
  ThreadPool pool(4);
  const AdversaryResult adversary = run_adversary(net);
  const std::vector<Witness> witnesses = enumerate_witnesses(adversary, 64);
  ASSERT_GE(witnesses.size(), 8u);
  const CompiledNetwork compiled = compile(net);
  calls = 0;
  EXPECT_THROW(check_witnesses(compiled, witnesses, &pool,
                               [&] {
                                 if (++calls > 3) throw Cancelled{};
                               }),
               Cancelled);
  const auto serial = check_witnesses(compiled, witnesses, nullptr);
  const auto pooled = check_witnesses(compiled, witnesses, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(serial[i].never_compared, pooled[i].never_compared);
    EXPECT_EQ(serial[i].same_permutation, pooled[i].same_permutation);
    EXPECT_TRUE(pooled[i].refutes_sorting());
  }
}

TEST(AdversaryParallel, ProgressRunsOncePerLevelAndReplay) {
  const IteratedRdn net = sample_network(64, 2, 32);
  RefuteOptions options;
  std::size_t calls = 0;
  options.progress = [&] { ++calls; };
  const RefutationResult result = refute(net, options);
  EXPECT_EQ(result.status, RefutationStatus::Refuted);
  // Once per RDN level (2 stages x lg 64 levels) plus once before the
  // certificate replay.
  EXPECT_EQ(calls, 2 * 6 + 1);
}

// ------------------------------------------------------ phase counters --

TEST(AdversaryParallel, PhaseCountersPopulated) {
  obs::set_enabled(true);
  const IteratedRdn net = sample_network(128, 1, 33);
  const RefutationResult result = refute(net);
  obs::set_enabled(false);
  EXPECT_EQ(result.status, RefutationStatus::Refuted);
  // Phase wall-clock accrues into plain counters (exported with every
  // metrics snapshot, unlike spans which need the trace).
  EXPECT_GT(obs::counter("refuter.phase_us.refute").value(), 0u);
  EXPECT_GT(obs::counter("refuter.phase_us.adversary").value(), 0u);
  EXPECT_GT(obs::counter("refuter.phase_us.lemma41_refine").value(), 0u);
}

TEST(AdversaryParallel, CircuitRefutePhasesCoverRefute) {
  // `make random-rdn 4096 7`: one 12-level chunk the refuter must slice
  // and recognize before the adversary runs.
  Prng rng(7);
  const ComparatorNetwork net = random_rdn(12, rng, 10, 5).net;
  const auto value = [](const char* name) {
    return obs::counter(name).value();
  };
  const char* const children[] = {
      "refuter.phase_us.slice", "refuter.phase_us.adversary",
      "refuter.phase_us.witness_build", "refuter.phase_us.witness_replay"};
  const std::uint64_t refute_before = value("refuter.phase_us.refute");
  std::uint64_t children_before = 0;
  for (const char* name : children) children_before += value(name);
  obs::set_enabled(true);
  const RefutationResult result = refute(net);
  obs::set_enabled(false);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  const std::uint64_t refute_us = value("refuter.phase_us.refute") - refute_before;
  std::uint64_t children_us = 0;
  for (const char* name : children) children_us += value(name);
  children_us -= children_before;
  ASSERT_GT(refute_us, 0u);
  EXPECT_GE(static_cast<double>(children_us),
            0.9 * static_cast<double>(refute_us))
      << "phase children " << children_us << " us of refute " << refute_us
      << " us";
}

TEST(AdversaryParallel, RegisterRefutePhasesCoverRefute) {
  // `make random-shuffle 4096 24 7`: two lg n-step chunks the refuter must
  // convert into an iterated RDN (under `slice`) before the adversary runs.
  Prng rng(7);
  const RegisterNetwork net = random_shuffle_network(4096, 24, rng, {10, 5});
  const auto value = [](const char* name) {
    return obs::counter(name).value();
  };
  const char* const children[] = {
      "refuter.phase_us.slice", "refuter.phase_us.adversary",
      "refuter.phase_us.witness_build", "refuter.phase_us.witness_replay"};
  const std::uint64_t refute_before = value("refuter.phase_us.refute");
  std::uint64_t children_before = 0;
  for (const char* name : children) children_before += value(name);
  obs::set_enabled(true);
  const RefutationResult result = refute(net);
  obs::set_enabled(false);
  ASSERT_EQ(result.status, RefutationStatus::Refuted);
  const std::uint64_t refute_us = value("refuter.phase_us.refute") - refute_before;
  std::uint64_t children_us = 0;
  for (const char* name : children) children_us += value(name);
  children_us -= children_before;
  ASSERT_GT(refute_us, 0u);
  EXPECT_GE(static_cast<double>(children_us),
            0.9 * static_cast<double>(refute_us))
      << "phase children " << children_us << " us of refute " << refute_us
      << " us";
}

// -------------------------------------------------------------- sweep --

TEST(Sweep, DeterministicAcrossParallelism) {
  SweepConfig config;
  config.lg_min = 4;
  config.lg_max = 5;
  config.max_depth = 2;
  const std::vector<SweepPoint> serial = run_sweep(config);
  ThreadPool pool(4);
  config.pool = &pool;
  const std::vector<SweepPoint> parallel = run_sweep(config);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].n, parallel[i].n);
    EXPECT_EQ(serial[i].refuted_depth, parallel[i].refuted_depth);
    EXPECT_EQ(serial[i].survivors, parallel[i].survivors);
    EXPECT_EQ(serial[i].witnesses_refuting, parallel[i].witnesses_refuting);
    EXPECT_TRUE(parallel[i].certificate_roundtrip_ok);
    EXPECT_GE(serial[i].refuted_depth, 1u);
  }
}

TEST(Sweep, JsonCarriesEveryPoint) {
  SweepConfig config;
  config.lg_min = 4;
  config.lg_max = 4;
  config.max_depth = 1;
  const auto points = run_sweep(config);
  const std::string json = sweep_to_json(config, points);
  EXPECT_NE(json.find("\"experiment\": \"E21\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"refuted_depth\": 1"), std::string::npos);
}

}  // namespace
}  // namespace shufflebound
