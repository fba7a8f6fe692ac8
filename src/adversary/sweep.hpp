// Empirical bound-curve sweep: measured refutation depth vs the paper's
// bound, across a family of iterated reverse delta networks and a range
// of widths.
//
// For each n = 2^lg in [lg_min, lg_max] the sweep builds (d, lg n)-
// iterated RDNs for d = 1, 2, ... and runs the full adversary pipeline
// (refinement, witness extraction, certificate self-verification) until
// a depth leaves fewer than two survivors or max_depth is reached. The
// last refuted depth is the point's `refuted_depth`: the deepest network
// of the family that the adversary constructively proves non-sorting.
// Theorem 4.1's floor n / lg^{4d} n is reported alongside for the same
// (n, d) so the curve can be compared against the paper's asymptotics.
//
// Everything is deterministic given (family, seed): network construction
// draws from a splitmix-forked Prng per (n, d) point, so adding or
// removing points never perturbs the others.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adversary/refuter.hpp"

namespace shufflebound {

class ThreadPool;

/// Network family swept over. All are iterated RDNs on n wires with
/// lg n-level chunks; they differ in chunk structure and the free
/// permutations between chunks.
enum class SweepFamily : std::uint8_t {
  /// Butterfly chunks, seeded uniformly random permutation before every
  /// chunk - the hardest instances we can build for the adversary while
  /// staying inside the class the theorem addresses.
  ButterflyRandomPerm,
  /// Butterfly chunks with the shuffle permutation in front of each - the
  /// canonical shuffle-based network of the paper's motivating model.
  ButterflyShuffle,
  /// Random RDN chunks (random decomposition tree, random matchings,
  /// random orientations) with random permutations in front.
  RandomRdn,
};

/// Parses "butterfly" / "shuffle" / "random"; throws std::invalid_argument
/// on anything else.
SweepFamily sweep_family_from_name(const std::string& name);
const char* sweep_family_name(SweepFamily family);

struct SweepConfig {
  SweepFamily family = SweepFamily::ButterflyRandomPerm;
  std::uint32_t lg_min = 8;    // smallest width 2^lg_min
  std::uint32_t lg_max = 12;   // largest width 2^lg_max
  std::size_t max_depth = 8;   // cap on iterated stages d per width
  std::uint64_t seed = 1;      // family construction seed
  std::size_t witnesses = 64;  // enumeration cap at the deepest refuted d
  ThreadPool* pool = nullptr;  // witness batch; nullptr = serial
  std::function<void()> progress;  // cooperative-cancellation hook
};

/// One (n, d*) point of the bound curve.
struct SweepPoint {
  wire_t n = 0;
  std::uint32_t lg = 0;
  /// Deepest d in [1, max_depth] the adversary refuted (>= 2 survivors
  /// and a self-verified certificate). 0 if even d = 1 was not refuted.
  std::size_t refuted_depth = 0;
  /// Survivor count at refuted_depth.
  std::size_t survivors = 0;
  /// Theorem 4.1 floor n / lg^{4d} n at d = refuted_depth.
  double paper_bound = 0.0;
  /// Witness pairs enumerated and replayed at refuted_depth, and how many
  /// of them independently refute sorting (all should).
  std::size_t witnesses_checked = 0;
  std::size_t witnesses_refuting = 0;
  /// The refuted_depth certificate survived a v2 chunked round-trip and
  /// re-verification against the compiled network.
  bool certificate_roundtrip_ok = false;
  /// v2 chunked text size / v1 flat text size for the same certificate.
  double cert_v2_ratio = 0.0;
};

/// Runs the sweep. Points appear in ascending width order; one per lg.
std::vector<SweepPoint> run_sweep(const SweepConfig& config);

/// Serializes a sweep as the BENCH_E21-style JSON document: config echo
/// plus one record per point.
std::string sweep_to_json(const SweepConfig& config,
                          const std::vector<SweepPoint>& points);

/// Renders the human-readable bound-curve table (one row per point).
std::string sweep_to_table(const std::vector<SweepPoint>& points);

}  // namespace shufflebound
