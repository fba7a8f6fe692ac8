// Exhaustive 0-1 certification on the wide-lane kernel engine.
//
// By the 0-1 principle, a comparator circuit sorts every input iff it
// sorts every vector in {0,1}^n. On 0/1 values a comparator is AND/OR
// on packed words, so one kernel pass evaluates a whole block of test
// vectors at once: the lane width of the runtime-dispatched kernel
// (sim/isa.hpp), 64 to 512 bits.
// The network is compiled once (sim/compiled_net.hpp) and the op table
// is shared read-only across all vector blocks and worker threads.
//
// Determinism contract: the reported failing vector is always the
// MINIMAL failing 0/1 vector, independent of lane width, thread count,
// and scheduling - a parallel sweep prunes only blocks whose entire
// index range lies above the current minimum, which cannot change the
// result. The scalar reference kernel lives in core/bitparallel.hpp;
// tests/test_simd.cpp holds all paths to bit-for-bit agreement.
//
// This header is also the home of the hybrid certification dispatcher
// (CertifyEngine / CertifyOptions): zero_one_check can route through the
// frontier engine (sim/frontier.hpp), which certifies frontier-friendly
// networks far past the sweep's 2^n wall under the same determinism
// contract. See docs/simd.md, "The frontier engine".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/bitparallel.hpp"
#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "sim/arena.hpp"
#include "sim/compiled_net.hpp"
#include "sim/frontier.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {

/// Widest network the wide-lane sweep accepts: 2^n test vectors stop
/// being enumerable long before 64-bit indices run out. The frontier
/// engine (sim/frontier.hpp) continues to kFrontierWidthCap.
inline constexpr wire_t kSweepWidthCap = 30;

/// Result of an exhaustive 0-1 check.
struct ZeroOneReport {
  bool sorts_all = false;
  /// If not: the minimal witness 0/1 input vector (bit w = value fed to
  /// wire w).
  std::optional<std::uint64_t> failing_vector;
  /// Size of the certified input space (2^n): the sweep enumerates it,
  /// the frontier engine covers it symbolically, and a static analyze
  /// certification covers it by proof without evaluating any vector
  /// (saturated to UINT64_MAX when n >= 64 - the analyze engine has no
  /// width cap, so 2^n can overflow the counter).
  std::uint64_t vectors_checked = 0;
};

/// Which certification engine a zero_one_check call may use.
///
///  * Sweep: the wide-lane 2^n enumeration, n <= kSweepWidthCap.
///  * Frontier: reachable-set propagation (sim/frontier.hpp), n <=
///    kFrontierWidthCap; throws if the frontier exceeds the budget.
///  * Analyze: static order-relation certification (analyze/
///    analyzer.hpp) - no width cap and zero simulated vectors, but
///    sound-not-complete: it can only certify, never refute, and throws
///    std::runtime_error when inconclusive.
///  * Auto: the hybrid - a static analyze pass runs first at every
///    width (when it certifies, the enumerative engines are skipped
///    entirely); otherwise small n stays on the sweep (it is already
///    memory-bandwidth fast there), mid n tries a budget-bounded
///    frontier pass and falls back to the sweep when the network is not
///    frontier-friendly, and n above the sweep cap runs frontier-only.
enum class CertifyEngine : std::uint8_t { Auto, Frontier, Sweep, Analyze };

/// "auto" / "frontier" / "sweep" / "analyze" (CLI flag values, error
/// messages).
const char* certify_engine_name(CertifyEngine engine) noexcept;
std::optional<CertifyEngine> parse_certify_engine(std::string_view name);

struct CertifyOptions {
  CertifyEngine engine = CertifyEngine::Auto;
  /// Auto only: run the static analyze pass before any enumerative
  /// engine (CertifyEngine::Analyze ignores this - it IS the analyze
  /// pass). Turned off by callers that specifically exercise or measure
  /// the enumeration paths (kernel benches, fallback tests).
  bool analyze_first = true;
  /// State budget handed to frontier passes. Auto additionally clamps
  /// its fallback-guarded attempts (n <= kSweepWidthCap) to 2^(n-8), so
  /// an unfriendly network aborts after a tiny fraction of sweep work.
  std::uint64_t frontier_budget = kDefaultFrontierBudget;
  /// Tiles the sweep and the relabel sweep over its workers; the
  /// frontier always runs on the calling thread.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation/deadline hook: the frontier engine calls
  /// it once per level, the sweep once per lane block and the relabel
  /// sweep once per 64-vector block (concurrently from pool workers when
  /// a pool is set). Exceptions propagate.
  std::function<void()> progress;
  /// Compile-once arena (sim/arena.hpp): when both fields are set, the
  /// network overloads fetch the compiled op table (for circuits, the
  /// redundancy-eliminated one) from the arena instead of compiling per
  /// call - an arena hit skips elimination AND compilation. The key must
  /// uniquely identify the compiled form (the service salts its network
  /// fingerprints by purpose). Both null by default: standalone callers
  /// keep the compile-per-call behavior.
  CompilationArena* arena = nullptr;
  std::optional<ArenaKey> arena_key;
};

/// Exhaustively checks all 2^n 0/1 vectors (n <= kSweepWidthCap
/// enforced). Pass a pool to tile vector blocks over its workers. For
/// the register model the output is checked in register order (sorted
/// register contents), matching the convention that shuffle-compiled
/// sorters finish in register order. These overloads dispatch through
/// CertifyEngine::Auto, so statically certifiable networks (any width)
/// and frontier-friendly networks up to kFrontierWidthCap certify too.
ZeroOneReport zero_one_check(const ComparatorNetwork& net,
                             ThreadPool* pool = nullptr);
ZeroOneReport zero_one_check(const RegisterNetwork& net,
                             ThreadPool* pool = nullptr);

/// The compiled-reuse entry point: sweep a pre-compiled network without
/// paying compilation again (batch certification, benches).
ZeroOneReport zero_one_check(const CompiledNetwork& net,
                             ThreadPool* pool = nullptr);

/// The hybrid dispatcher: certify with an explicit engine choice,
/// budget, and progress hook. All engines return the same sorts_all and
/// the same MINIMAL failing vector (tests/test_frontier.cpp); they
/// differ only in reachable width and speed. Throws std::invalid_argument
/// past an engine's width cap (the message names the engine, its cap
/// and the requested n), std::runtime_error when a forced frontier run
/// exhausts its budget or a forced analyze run is inconclusive. The
/// ComparatorNetwork overload additionally runs redundancy elimination
/// (analyze/analyzer.hpp) before compiling: pointwise output-equivalent,
/// so the verdict and the minimal failing vector are unchanged while the
/// kernel op table shrinks.
ZeroOneReport zero_one_check(const CompiledNetwork& net,
                             const CertifyOptions& opts);
ZeroOneReport zero_one_check(const ComparatorNetwork& net,
                             const CertifyOptions& opts);
ZeroOneReport zero_one_check(const RegisterNetwork& net,
                             const CertifyOptions& opts);

/// Convenience wrapper: true iff the network sorts everything.
bool is_sorting_network(const ComparatorNetwork& net,
                        ThreadPool* pool = nullptr);
bool is_sorting_network(const RegisterNetwork& net,
                        ThreadPool* pool = nullptr);

/// The paper's general definition: a comparator network is a sorting
/// network iff it maps every input to the SAME output permutation - the
/// output rank assignment need not be the identity (flattening a
/// register-model sorter to the circuit model leaves a fixed wire
/// permutation at the end, for example). Checks, over all 2^n 0-1
/// vectors, that every weight class maps to a single output and that the
/// outputs form a nested chain; on success returns `ranks` with
/// ranks[w] = final rank of wire w (ranks == identity iff the strict
/// check would also pass). n <= kSweepWidthCap enforced; pass a pool to
/// shard the sweep (per-shard expected tables, merged at the end - the
/// result is identical to the sequential path). `progress`, when set,
/// runs once per 64-vector block (as CertifyOptions::progress);
/// exceptions propagate. This is the full sweep; certify_sorting below
/// reaches it only when neither the analyzer nor a weight-class probe
/// decides first.
struct RelabelReport {
  bool sorts = false;
  std::optional<Permutation> ranks;
};
RelabelReport zero_one_check_up_to_relabel(
    const ComparatorNetwork& net, ThreadPool* pool = nullptr,
    const std::function<void()>& progress = {});
RelabelReport zero_one_check_up_to_relabel(
    const RegisterNetwork& net, ThreadPool* pool = nullptr,
    const std::function<void()>& progress = {});

/// What certify reports: a strict sorter, a sorter up to a fixed output
/// rank assignment, neither, or - past the relabel sweep's cap - a
/// strict non-sorter whose relabel sorting nothing decided.
enum class SortingVerdict : std::uint8_t {
  Sorting,
  SortingUpToRelabel,
  NotSorting,
  RelabelUndecided
};

/// "sorting" / "sorting-up-to-relabel" / "not-sorting" /
/// "relabel-undecided" (the batch payload's words).
const char* sorting_verdict_name(SortingVerdict verdict) noexcept;

struct SortingReport {
  SortingVerdict verdict = SortingVerdict::NotSorting;
  /// NotSorting, RelabelUndecided: the strict check's minimal failing
  /// 0/1 vector.
  std::optional<std::uint64_t> failing_vector;
  /// SortingUpToRelabel: ranks[w] = final rank of wire w.
  std::optional<Permutation> ranks;
  /// As ZeroOneReport::vectors_checked.
  std::uint64_t vectors_checked = 0;
};

/// The one strict-then-relabel decision behind `certify` (CLI and batch
/// engine). Where the analyzer runs (Auto with analyze_first, or the
/// forced Analyze engine), its proof of sorting up to relabel decides at
/// any width, with its ranks.
/// Otherwise the strict zero_one_check runs with `opts`; if it fails, the
/// failing vector v and up to 63 more vectors of v's weight are
/// evaluated in one 64-lane pass. A relabel sorter maps a whole weight
/// class to one output, so two lanes that differ refute it (NotSorting).
/// When every lane agrees, the full relabel sweep decides for n <=
/// kSweepWidthCap (with opts.pool and opts.progress); past that cap the
/// verdict is RelabelUndecided, with the strict failing vector. Throws
/// as zero_one_check does.
SortingReport certify_sorting(const ComparatorNetwork& net,
                              const CertifyOptions& opts);
SortingReport certify_sorting(const RegisterNetwork& net,
                              const CertifyOptions& opts);

}  // namespace shufflebound
