#include "sim/bitparallel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <stdexcept>
#include <string>

#include "analyze/analyzer.hpp"
#include "obs/obs.hpp"
#include "sim/isa.hpp"
#include "sim/simd.hpp"

namespace shufflebound {

namespace {

std::string cap_error(const char* function, const char* engine, wire_t cap,
                      wire_t n, const char* hint) {
  return std::string(function) + ": n=" + std::to_string(n) +
         " exceeds the " + engine + " engine cap (n <= " +
         std::to_string(cap) + ")" + hint;
}

[[noreturn]] void throw_sweep_cap(wire_t n) {
  throw std::invalid_argument(cap_error(
      "zero_one_check", "sweep", kSweepWidthCap, n,
      "; the frontier engine certifies frontier-friendly networks up to "
      "n <= 48 and the analyze engine certifies statically provable "
      "networks at any width (CertifyEngine::Frontier|Analyze or Auto, "
      "--certify-engine frontier|analyze|auto)"));
}

/// Lowers `candidate` into the atomic minimum. CAS loop (fetch_min is
/// C++26); the final value is the exact minimum over all contributions,
/// which is what makes the parallel sweep deterministic.
void atomic_min(std::atomic<std::uint64_t>& current, std::uint64_t candidate) {
  std::uint64_t observed = current.load(std::memory_order_relaxed);
  while (candidate < observed &&
         !current.compare_exchange_weak(observed, candidate,
                                        std::memory_order_relaxed)) {
  }
}

/// The wide-lane 2^n sweep (the pre-frontier zero_one_check), factored
/// out so the dispatcher can use it as the forced engine and the hybrid
/// fallback. The block kernel comes from the runtime ISA dispatch table
/// (sim/isa.hpp): one entry per available path, every path returning
/// the exact minimal failing vector in its block, so the atomic-min
/// fold below makes the result independent of the selected lane width.
/// `progress` (when set) runs once per lane block before its evaluation
/// - concurrently from pool workers when a pool is set.
ZeroOneReport sweep_zero_one(const CompiledNetwork& net, ThreadPool* pool,
                             const std::function<void()>& progress) {
  const wire_t n = net.width();
  if (n > kSweepWidthCap) throw_sweep_cap(n);
  const simd::KernelDispatch& kernel = simd::active_kernel();
  SB_OBS_SPAN("kernel", "zero_one_check");
  SB_OBS_COUNT("kernel.sweeps", 1);
  SB_OBS_GAUGE("kernel.lane_bits", kernel.lane_bits);
  if (kernel.isa == simd::Isa::Scalar)
    SB_OBS_COUNT("kernel.scalar_fallback_sweeps", 1);
  const std::uint64_t total = std::uint64_t{1} << n;
  const std::uint64_t lane_bits = kernel.lane_bits;
  const std::uint64_t blocks = (total + lane_bits - 1) / lane_bits;

  std::atomic<std::uint64_t> first_failing{UINT64_MAX};
  const auto run_block = [&](std::size_t block) {
    if (progress) progress();
    const std::uint64_t base = static_cast<std::uint64_t>(block) * lane_bits;
    // Prune blocks that cannot lower the minimum: every vector in this
    // block is >= base, so skipping preserves the exact result.
    if (base >= first_failing.load(std::memory_order_relaxed)) return;
    // Counted here, after the prune, so the counter reports vectors the
    // kernel actually evaluated (tests/test_obs.cpp pins the invariant).
    SB_OBS_COUNT("kernel.vectors_evaluated",
                 std::min<std::uint64_t>(lane_bits, total - base));
    const std::uint64_t failing = kernel.sweep_block(net, base, total);
    if (failing != UINT64_MAX) atomic_min(first_failing, failing);
  };

  if (pool != nullptr) {
    pool->parallel_for(0, static_cast<std::size_t>(blocks), run_block);
  } else {
    for (std::uint64_t block = 0; block < blocks; ++block)
      run_block(static_cast<std::size_t>(block));
  }

  ZeroOneReport report;
  report.vectors_checked = total;
  const std::uint64_t f = first_failing.load();
  if (f == UINT64_MAX) {
    report.sorts_all = true;
  } else {
    report.sorts_all = false;
    report.failing_vector = f;
  }
  return report;
}

/// Below this width Auto goes straight to the sweep: 2^n is at most a
/// megavector, the wide lanes chew through it in well under a
/// millisecond, and skipping the frontier attempt keeps the small-n
/// hot paths (batch certification, search inner loops) exactly as fast
/// as before the hybrid existed.
constexpr wire_t kAutoSweepPreferredWidth = 20;

/// Auto's fallback-guarded frontier attempts (n <= kSweepWidthCap) are
/// clamped to 2^(n - kAutoAttemptShift) states, i.e. 1/256th of the
/// sweep's vector count: a frontier-unfriendly network aborts after a
/// small fraction of the sweep's work, so the hybrid never costs more
/// than a few percent over running the sweep directly.
constexpr unsigned kAutoAttemptShift = 8;

ZeroOneReport from_frontier(const FrontierReport& frontier, wire_t n) {
  ZeroOneReport report;
  report.sorts_all = frontier.sorts_all;
  report.failing_vector = frontier.failing_vector;
  report.vectors_checked = std::uint64_t{1} << n;
  return report;
}

[[noreturn]] void throw_budget_exhausted(const FrontierReport& frontier,
                                         std::uint64_t budget, wire_t n,
                                         bool sweep_possible) {
  const std::string detail =
      "frontier engine exhausted its budget of " + std::to_string(budget) +
      " states after " + std::to_string(frontier.levels_processed) +
      " levels at n=" + std::to_string(n);
  if (sweep_possible)
    throw std::runtime_error(
        "zero_one_check: " + detail +
        "; raise CertifyOptions::frontier_budget or use the sweep engine "
        "(n <= " +
        std::to_string(kSweepWidthCap) + ")");
  throw std::invalid_argument(
      "zero_one_check: n=" + std::to_string(n) +
      " exceeds the sweep engine cap (n <= " +
      std::to_string(kSweepWidthCap) + ") and the " + detail +
      "; the network is not frontier-friendly at this width, and the "
      "analyze engine found no static proof");
}

/// What one analyzer pass proved about a network: the verdict, and for
/// CertifiedUpToRelabel the rank at each output position.
struct AnalyzerProof {
  AnalyzeVerdict verdict = AnalyzeVerdict::Inconclusive;
  std::vector<wire_t> relabel_ranks;
};

AnalyzerProof run_analyzer(const CompiledNetwork& net) {
  SB_OBS_SPAN("kernel", "analyze_certify");
  AnalyzeReport report = analyze(level_program_from_compiled(net));
  return {report.verdict, std::move(report.relabel_ranks)};
}

/// 2^n, saturated at n >= 64 (the analyze engine has no width cap).
std::uint64_t all_vectors(wire_t n) {
  return n >= 64 ? UINT64_MAX : std::uint64_t{1} << n;
}

/// The static-certification attempt: returns a report when the
/// order-relation analysis (analyze/analyzer.hpp) proves the output
/// chain, nullopt otherwise. The analysis is sound but incomplete - it
/// can only certify, never refute - so nullopt says nothing about
/// non-sorting and the caller falls through to an enumerative engine.
/// No test vector is ever evaluated on this path (the obs counters
/// below, and the untouched kernel.vectors_evaluated, are the
/// observable proof of that). `proof` is what the caller already proved
/// for `net`; only without one does this run an analyzer pass (and keep
/// its result there).
std::optional<ZeroOneReport> analyze_zero_one(
    const CompiledNetwork& net, std::optional<AnalyzerProof>& proof) {
  if (!proof) proof = run_analyzer(net);
  if (proof->verdict != AnalyzeVerdict::Certified) {
    SB_OBS_COUNT("kernel.analyze_inconclusive", 1);
    return std::nullopt;
  }
  SB_OBS_COUNT("kernel.analyze_certified", 1);
  ZeroOneReport out;
  out.sorts_all = true;
  out.vectors_checked = all_vectors(net.width());
  return out;
}

/// The engine dispatch behind every zero_one_check overload; `proof` as
/// in analyze_zero_one.
ZeroOneReport certify(const CompiledNetwork& net, const CertifyOptions& opts,
                      std::optional<AnalyzerProof>& proof) {
  const wire_t n = net.width();
  FrontierOptions frontier_opts;
  frontier_opts.budget = opts.frontier_budget;
  frontier_opts.progress = opts.progress;

  switch (opts.engine) {
    case CertifyEngine::Sweep:
      return sweep_zero_one(net, opts.pool, opts.progress);
    case CertifyEngine::Frontier: {
      const FrontierReport frontier =
          frontier_zero_one_check(net, frontier_opts);
      if (!frontier.completed)
        throw_budget_exhausted(frontier, frontier_opts.budget, n,
                               /*sweep_possible=*/n <= kSweepWidthCap);
      return from_frontier(frontier, n);
    }
    case CertifyEngine::Analyze: {
      if (const auto report = analyze_zero_one(net, proof)) return *report;
      throw std::runtime_error(
          "zero_one_check: the analyze engine is inconclusive at n=" +
          std::to_string(n) +
          "; static certification is sound but incomplete and can never "
          "refute - use the sweep engine (n <= " +
          std::to_string(kSweepWidthCap) + "), the frontier engine (n <= " +
          std::to_string(kFrontierWidthCap) + "), or Auto");
    }
    case CertifyEngine::Auto: break;
  }

  // Auto runs the static analysis before any enumerative engine: it is
  // O(depth * n^2) bit arithmetic - negligible next to even the
  // smallest sweep - and when it certifies, zero vectors are evaluated
  // regardless of width.
  if (opts.analyze_first) {
    if (const auto report = analyze_zero_one(net, proof)) return *report;
  }
  if (n <= kAutoSweepPreferredWidth)
    return sweep_zero_one(net, opts.pool, opts.progress);
  if (n <= kSweepWidthCap) {
    // Guarded attempt: friendly networks finish orders of magnitude
    // ahead of the sweep; unfriendly ones blow the clamped budget
    // almost immediately and fall back.
    frontier_opts.budget =
        std::min<std::uint64_t>(frontier_opts.budget,
                                std::uint64_t{1} << (n - kAutoAttemptShift));
    const FrontierReport frontier =
        frontier_zero_one_check(net, frontier_opts);
    if (frontier.completed) return from_frontier(frontier, n);
    SB_OBS_COUNT("kernel.frontier_fallbacks", 1);
    return sweep_zero_one(net, opts.pool, opts.progress);
  }
  if (n <= kFrontierWidthCap) {
    const FrontierReport frontier =
        frontier_zero_one_check(net, frontier_opts);
    if (!frontier.completed)
      throw_budget_exhausted(frontier, frontier_opts.budget, n,
                             /*sweep_possible=*/false);
    return from_frontier(frontier, n);
  }
  throw std::invalid_argument(
      "zero_one_check: n=" + std::to_string(n) +
      " exceeds every enumerative certification engine cap (sweep n <= " +
      std::to_string(kSweepWidthCap) + ", frontier n <= " +
      std::to_string(kFrontierWidthCap) +
      ") and the analyze engine found no static proof");
}

}  // namespace

const char* certify_engine_name(CertifyEngine engine) noexcept {
  switch (engine) {
    case CertifyEngine::Frontier: return "frontier";
    case CertifyEngine::Sweep: return "sweep";
    case CertifyEngine::Analyze: return "analyze";
    case CertifyEngine::Auto: break;
  }
  return "auto";
}

std::optional<CertifyEngine> parse_certify_engine(std::string_view name) {
  if (name == "auto") return CertifyEngine::Auto;
  if (name == "frontier") return CertifyEngine::Frontier;
  if (name == "sweep") return CertifyEngine::Sweep;
  if (name == "analyze") return CertifyEngine::Analyze;
  return std::nullopt;
}

namespace {

/// A network ready to certify: its compiled op table (from the arena
/// when the options name one) and, when compiling a circuit ran the
/// elimination pass, the analyzer proof that pass yielded.
struct Prepared {
  std::shared_ptr<const CompiledNetwork> compiled;
  std::optional<AnalyzerProof> proof;
};

Prepared prepare(const ComparatorNetwork& net, const CertifyOptions& opts) {
  // Redundancy elimination before compilation: pointwise output-
  // equivalent on every input (analyze/analyzer.hpp), so the verdict
  // and the minimal failing vector are unchanged while the compiled op
  // table shrinks. Both steps live inside the compile closure so an
  // arena hit skips them entirely.
  Prepared out;
  const auto compile_reduced = [&net, &out]() -> CompiledNetwork {
    EliminationResult reduced = [&net] {
      SB_OBS_SPAN("kernel", "analyze_certify");
      return eliminate_redundant(net);
    }();
    out.proof =
        AnalyzerProof{reduced.verdict, std::move(reduced.relabel_ranks)};
    if (reduced.removed == 0 && reduced.exchanged == 0) return compile(net);
    SB_OBS_COUNT("kernel.redundant_ops_removed", reduced.removed);
    SB_OBS_COUNT("kernel.always_exchange_rewrites", reduced.exchanged);
    return compile(reduced.net);
  };
  // One analyzer pass per call: on an arena miss (or without an arena)
  // the elimination pass above proves the verdict and certify reuses
  // it; on an arena hit the closure is skipped and certify runs its own
  // single analyze pass on the cached table.
  out.compiled = opts.arena != nullptr && opts.arena_key
                     ? opts.arena->get_or_compile(*opts.arena_key,
                                                  compile_reduced)
                     : std::make_shared<const CompiledNetwork>(
                           compile_reduced());
  return out;
}

Prepared prepare(const RegisterNetwork& net, const CertifyOptions& opts) {
  const auto compile_plain = [&net] { return compile(net); };
  Prepared out;
  out.compiled =
      opts.arena != nullptr && opts.arena_key
          ? opts.arena->get_or_compile(*opts.arena_key, compile_plain)
          : std::make_shared<const CompiledNetwork>(compile_plain());
  return out;
}

template <typename Net>
ZeroOneReport check_prepared(const Net& net, const CertifyOptions& opts) {
  Prepared prepared = prepare(net, opts);
  return certify(*prepared.compiled, opts, prepared.proof);
}

}  // namespace

ZeroOneReport zero_one_check(const CompiledNetwork& net,
                             const CertifyOptions& opts) {
  std::optional<AnalyzerProof> proof;
  return certify(net, opts, proof);
}

ZeroOneReport zero_one_check(const ComparatorNetwork& net,
                             const CertifyOptions& opts) {
  return check_prepared(net, opts);
}

ZeroOneReport zero_one_check(const RegisterNetwork& net,
                             const CertifyOptions& opts) {
  return check_prepared(net, opts);
}

ZeroOneReport zero_one_check(const CompiledNetwork& net, ThreadPool* pool) {
  CertifyOptions opts;
  opts.pool = pool;
  return zero_one_check(net, opts);
}

ZeroOneReport zero_one_check(const ComparatorNetwork& net, ThreadPool* pool) {
  CertifyOptions opts;
  opts.pool = pool;
  return zero_one_check(net, opts);
}

ZeroOneReport zero_one_check(const RegisterNetwork& net, ThreadPool* pool) {
  CertifyOptions opts;
  opts.pool = pool;
  return zero_one_check(compile(net), opts);
}

bool is_sorting_network(const ComparatorNetwork& net, ThreadPool* pool) {
  return zero_one_check(net, pool).sorts_all;
}

bool is_sorting_network(const RegisterNetwork& net, ThreadPool* pool) {
  return zero_one_check(net, pool).sorts_all;
}

namespace {

constexpr std::uint32_t kRelabelUnset = 0xFFFFFFFFu;

/// Sweeps 0/1 vectors [lo, hi) (64-aligned lo) into a per-weight
/// expected-output table. Sets `diverged` and stops early when two
/// inputs of equal weight map to different outputs. Per-vector output
/// extraction dominates here, so the plain 64-wide scalar reference
/// kernel is the right tool; the compiled engine buys nothing.
/// `progress` (when set) runs once per 64-vector block.
template <typename Net>
void relabel_sweep_range(const Net& net, std::uint64_t lo, std::uint64_t hi,
                         std::vector<std::uint32_t>& expected,
                         std::atomic<bool>& diverged,
                         const std::function<void()>& progress) {
  const wire_t n = net.width();
  std::vector<std::uint64_t> words(n, 0);
  for (std::uint64_t base = lo; base < hi; base += 64) {
    if (diverged.load(std::memory_order_relaxed)) return;
    if (progress) progress();
    const std::uint64_t batch = std::min<std::uint64_t>(64, hi - base);
    for (wire_t w = 0; w < n; ++w) words[w] = simd::pattern_word(w, base);
    evaluate_packed(net, words);
    for (std::uint64_t s = 0; s < batch; ++s) {
      const auto weight =
          static_cast<std::size_t>(std::popcount(base + s));
      std::uint32_t out = 0;
      for (wire_t w = 0; w < n; ++w)
        out |= static_cast<std::uint32_t>(words[w] >> s & 1ull) << w;
      if (expected[weight] == kRelabelUnset) {
        expected[weight] = out;
      } else if (expected[weight] != out) {
        diverged.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

template <typename Net>
RelabelReport relabel_impl(const Net& net, ThreadPool* pool,
                           const std::function<void()>& progress) {
  const wire_t n = net.width();
  if (n > kSweepWidthCap)
    throw std::invalid_argument(
        cap_error("zero_one_check_up_to_relabel", "relabel sweep",
                  kSweepWidthCap, n, ""));
  SB_OBS_SPAN("kernel", "relabel_check");
  SB_OBS_COUNT("kernel.relabel_sweeps", 1);
  const std::uint64_t total = std::uint64_t{1} << n;
  std::vector<std::uint32_t> expected(n + 1, kRelabelUnset);
  std::atomic<bool> diverged{false};

  const std::uint64_t blocks = (total + 63) / 64;
  const std::size_t shards =
      pool == nullptr
          ? 1
          : std::min<std::uint64_t>(blocks, (pool->worker_count() + 1) * 4);
  if (shards <= 1) {
    relabel_sweep_range(net, 0, total, expected, diverged, progress);
    if (diverged.load()) return RelabelReport{};
  } else {
    // Shard the sweep over 64-aligned ranges: each shard fills its own
    // table, merged below. Divergence cannot hide behind the partition:
    // two same-weight inputs with different outputs either collide
    // inside one shard's table or surface as a merge conflict.
    const std::uint64_t chunk = (blocks + shards - 1) / shards;
    std::vector<std::vector<std::uint32_t>> tables(
        shards, std::vector<std::uint32_t>(n + 1, kRelabelUnset));
    pool->parallel_for(0, shards, [&](std::size_t shard) {
      const std::uint64_t lo = static_cast<std::uint64_t>(shard) * chunk * 64;
      const std::uint64_t hi =
          std::min<std::uint64_t>(total, lo + chunk * 64);
      if (lo < hi)
        relabel_sweep_range(net, lo, hi, tables[shard], diverged, progress);
    });
    if (diverged.load()) return RelabelReport{};
    for (const std::vector<std::uint32_t>& table : tables) {
      for (std::size_t weight = 0; weight <= n; ++weight) {
        if (table[weight] == kRelabelUnset) continue;
        if (expected[weight] == kRelabelUnset) {
          expected[weight] = table[weight];
        } else if (expected[weight] != table[weight]) {
          return RelabelReport{};  // shards disagree on a weight class
        }
      }
    }
  }
  // The outputs must form a nested chain gaining one position per weight;
  // the position gained between weight k and k+1 receives rank n-1-k.
  std::vector<wire_t> ranks(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t gained = expected[k + 1] & ~expected[k];
    if ((expected[k] & ~expected[k + 1]) != 0 || std::popcount(gained) != 1)
      return RelabelReport{};
    const auto wire = static_cast<wire_t>(std::countr_zero(gained));
    ranks[wire] = static_cast<wire_t>(n - 1 - k);
  }
  RelabelReport report;
  report.sorts = true;
  report.ranks = Permutation(std::move(ranks));
  return report;
}

/// The rotation of the n-bit word `v` left by `r` (0 < r < n).
std::uint64_t rotate_within(std::uint64_t v, unsigned r, wire_t n) {
  const std::uint64_t all = (std::uint64_t{1} << n) - 1;
  return ((v << r) | (v >> (n - r))) & all;
}

/// Refutes "sorts up to relabel" from the strict failing vector `v`
/// alone, n < 64. A relabel sorter maps every input of v's weight w to
/// one output, so one 64-lane pass evaluates v, the weight-w vector with
/// its top w bits set, and the rotations of both within n bits (2n
/// lanes, cut at 64 past n = 32). Returns true when two lanes differ on
/// some wire. v is unsorted by the strict check while the
/// top-w vector is a fixed point of every all-ascending circuit, so
/// without descending comparators or exchanges the probe always
/// refutes.
template <typename Net>
bool relabel_probe_refutes(const Net& net, std::uint64_t v) {
  const wire_t n = net.width();
  const auto weight = static_cast<unsigned>(std::popcount(v));
  const std::uint64_t top = ((std::uint64_t{1} << weight) - 1) << (n - weight);
  std::vector<std::uint64_t> lanes = {v, top};
  for (const std::uint64_t seed : {v, top})
    for (unsigned r = 1; r < n && lanes.size() < 64; ++r)
      lanes.push_back(rotate_within(seed, r, n));
  std::vector<std::uint64_t> words(n, 0);
  for (std::size_t s = 0; s < lanes.size(); ++s)
    for (wire_t w = 0; w < n; ++w) words[w] |= (lanes[s] >> w & 1u) << s;
  evaluate_packed(net, words);
  const std::uint64_t used = lanes.size() == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lanes.size()) - 1;
  return std::any_of(words.begin(), words.end(), [used](std::uint64_t word) {
    return (word & used) != 0 && (word & used) != used;
  });
}

template <typename Net>
SortingReport certify_sorting_impl(const Net& net,
                                   const CertifyOptions& opts) {
  Prepared prepared = prepare(net, opts);
  const CompiledNetwork& compiled = *prepared.compiled;
  std::optional<AnalyzerProof>& proof = prepared.proof;
  const wire_t n = net.width();
  SortingReport out;
  // Where the analyzer runs anyway (Auto's first pass, the forced
  // Analyze engine), a relabel proof decides without evaluating a
  // vector, at any width. The ranks of a relabel sorter are unique, so
  // they equal the sweep's.
  if (opts.engine == CertifyEngine::Analyze ||
      (opts.engine == CertifyEngine::Auto && opts.analyze_first)) {
    if (!proof) proof = run_analyzer(compiled);
    if (proof->verdict == AnalyzeVerdict::CertifiedUpToRelabel) {
      SB_OBS_COUNT("kernel.relabel_analyze_proofs", 1);
      out.verdict = SortingVerdict::SortingUpToRelabel;
      out.ranks = Permutation(std::move(proof->relabel_ranks));
      out.vectors_checked = all_vectors(n);
      return out;
    }
  }
  const ZeroOneReport strict = certify(compiled, opts, proof);
  out.vectors_checked = strict.vectors_checked;
  if (strict.sorts_all) {
    out.verdict = SortingVerdict::Sorting;
    return out;
  }
  out.failing_vector = strict.failing_vector;
  if (relabel_probe_refutes(net, *strict.failing_vector)) {
    SB_OBS_COUNT("kernel.relabel_probe_refutes", 1);
    return out;
  }
  // Past the sweep cap nothing decides what the probe could not refute.
  if (n > kSweepWidthCap) {
    out.verdict = SortingVerdict::RelabelUndecided;
    return out;
  }
  RelabelReport relabeled = relabel_impl(net, opts.pool, opts.progress);
  if (relabeled.sorts) {
    out.verdict = SortingVerdict::SortingUpToRelabel;
    out.failing_vector.reset();
    out.ranks = std::move(relabeled.ranks);
  }
  return out;
}

}  // namespace

RelabelReport zero_one_check_up_to_relabel(
    const ComparatorNetwork& net, ThreadPool* pool,
    const std::function<void()>& progress) {
  return relabel_impl(net, pool, progress);
}

RelabelReport zero_one_check_up_to_relabel(
    const RegisterNetwork& net, ThreadPool* pool,
    const std::function<void()>& progress) {
  return relabel_impl(net, pool, progress);
}

const char* sorting_verdict_name(SortingVerdict verdict) noexcept {
  switch (verdict) {
    case SortingVerdict::Sorting: return "sorting";
    case SortingVerdict::SortingUpToRelabel: return "sorting-up-to-relabel";
    case SortingVerdict::RelabelUndecided: return "relabel-undecided";
    case SortingVerdict::NotSorting: break;
  }
  return "not-sorting";
}

SortingReport certify_sorting(const ComparatorNetwork& net,
                              const CertifyOptions& opts) {
  return certify_sorting_impl(net, opts);
}

SortingReport certify_sorting(const RegisterNetwork& net,
                              const CertifyOptions& opts) {
  return certify_sorting_impl(net, opts);
}

}  // namespace shufflebound
