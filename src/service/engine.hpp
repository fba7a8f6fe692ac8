// The analysis job engine: a concurrent batch service over the library's
// analyses (info / certify / refute / count-sorted).
//
// Shape:
//
//   submit(spec) --> BoundedQueue (backpressure) --> ThreadPool workers
//        --> probe step --> key claim --> execute step (pure, deterministic)
//                 \-> ResultCache keyed by network fingerprint + params
//        --> result sink, as each job finishes
//
//   telemetry_to_json() <-- the obs counters and histograms the engine,
//        its cache and its compile arena own (JobCounters per kind)
//
// Every job takes the same two steps. The probe step checks the spec,
// parses the network, computes the cache key and looks it up (replaying
// a cached refutation); it answers invalid specs, unparseable networks
// and cache hits on its own. The execute step computes the payload of a
// miss from the network and key the probe step left behind and inserts
// it. A front end may run the probe step itself (probe(), any thread):
// an answered job then never enters the queue, and a miss is submitted
// with its probe already done (try_submit_for(ProbedJob)), so nothing is
// parsed or probed twice.
//
// Contracts the rest of the system builds on:
//
//  * Deterministic results. Each result is a pure function of its spec
//    and carries its job's submission index (JobResult::seq). The engine
//    hands results to the sink as their jobs finish, in no particular
//    order; a front end that promises input order (`batch`) reorders by
//    seq, and then produces byte-identical output for any worker count
//    and any cache state. Telemetry (latency, hits, queue pressure)
//    absorbs all the nondeterminism instead.
//  * Backpressure. At most `queue_capacity` jobs wait between the
//    producers and the workers; submit() blocks past that.
//  * Memoization with re-validation. Completed payloads are cached under
//    the canonical network fingerprint. Cached refutations are not
//    trusted: the witness pair is replayed through the freshly parsed
//    network before being served, and a failing entry is invalidated and
//    recomputed.
//  * One computation per key. A worker claims a miss's cache key before
//    executing it. A job whose key another worker holds waits (span
//    `service/key_wait`) until the key is released or its own deadline
//    passes, then probes the cache again: the owner's payload answers it
//    as a hit. An owner that failed or timed out cached nothing, so the
//    waiter claims the key and computes it itself.
//  * Cooperative timeouts. A per-job deadline (spec.timeout_ms, falling
//    back to the engine default; 0 = unlimited) is checked between work
//    chunks (trial blocks, 0-1 sweep batches), before expensive phases
//    and by the key wait. Timed-out jobs yield an error result and are
//    never cached. Timeouts necessarily break the determinism contract -
//    batches that rely on byte-identical output should run without them.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "obs/obs.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/queue.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {

class CompilationArena;
struct AnalyzeReport;

/// The largest Lemma 4.1 set budget t(l) = k^3 + l k^2 (l = lg n, rounded
/// up) a refute job's explicit `k` may ask for: Lemma 4.1 materializes
/// one set per index, so this bounds that vector at ~24 MiB. The default
/// k = lg n stays far below it (t = 16000 at the 2^20 width cap).
inline constexpr std::uint64_t kMaxRefuteSetBudget = std::uint64_t{1} << 20;

/// The "analyze" job payload of a report: the verdict and the counts and
/// fingerprints of its findings (`analyze --json` adds the findings).
JsonValue analyze_payload(const AnalyzeReport& report);

/// A job between its two steps. The probe step fills it: `result` when
/// the probe answered the job (invalid spec, unparseable network, cache
/// hit), else the parsed network and cache key the execute step needs.
struct ProbedJob {
  using Clock = std::chrono::steady_clock;

  explicit ProbedJob(JobSpec job_spec) : spec(std::move(job_spec)) {}

  JobSpec spec;
  std::optional<JobResult> result;
  std::optional<ParsedNetwork> net;  // kinds with a network, once parsed
  std::optional<CacheKey> key;       // set when the cache was probed
  bool probed = false;               // the probe step has run
  bool hit = false;                  // `result` came from the cache
  /// Lookup + revalidation time; zero when the cache was not probed.
  Clock::duration probe_time{};
  /// Probe-step time spent before the job was queued (a front end's
  /// probe()); the worker adds it to the job's latency.
  Clock::duration charged{};
};

struct EngineConfig {
  std::size_t workers = 0;         // 0 = hardware concurrency
  std::size_t queue_capacity = 64;
  bool cache_enabled = true;
  std::uint64_t default_timeout_ms = 0;  // 0 = unlimited
  /// Share a cache across engines (warm restarts, benchmarks); null means
  /// the engine creates a private one.
  std::shared_ptr<ResultCache> cache;
  /// Compile-once op-table arena (sim/arena.hpp) the workers share:
  /// certify / count-sorted / witness revalidation compile each distinct
  /// network at most once per purpose and share the sealed table. Null
  /// means CompilationArena::global() - engines in one process pool their
  /// compiles by default; tests inject a private arena to observe stats
  /// in isolation.
  std::shared_ptr<CompilationArena> arena;
};

/// One job kind's counters: the `jobs.<kind>` entry of the telemetry
/// document. The cache outcomes and the admissions feed the process-wide
/// `service.*` counters while tracing is on.
struct JobCounters {
  obs::Counter submitted{"service.jobs"};
  obs::Counter completed;  // ok results
  obs::Counter failed;     // error results (incl. invalid)
  obs::Counter timed_out;
  obs::Counter cache_hits{"service.cache_hits"};
  obs::Counter cache_misses{"service.cache_misses"};
  /// Job time EXCLUDING cache probes: parse + execute (or the cost of
  /// serving from cache once probing is done). Keeping the probe out
  /// means a warm batch's latency histogram reflects result delivery,
  /// not lookup + revalidation cost - that lives in `cache_probe`.
  obs::Histogram latency;
  /// Cache lookup + (for refute hits) witness revalidation time, per
  /// probe. Recorded only when the engine actually probed the cache.
  obs::Histogram cache_probe;
};

class AnalysisEngine {
 public:
  /// `sink` receives every submitted job's result exactly once, as its
  /// job finishes, from a worker thread (serialized - never
  /// concurrently). JobResult::seq is the job's submission index. A job
  /// probe() answered is never submitted.
  using ResultSink = std::function<void(const JobResult&)>;

  AnalysisEngine(EngineConfig config, ResultSink sink);

  /// Joins outstanding work (equivalent to finish()).
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Enqueues a job; assigns spec.seq. Blocks while the queue is full
  /// (backpressure). Returns false after finish(). Safe from any thread.
  bool submit(JobSpec spec);

  /// Outcome of try_submit_for - the admission-control verdict the server
  /// turns into a structured `overloaded` / `draining` wire response.
  enum class Admission : std::uint8_t { Accepted, QueueFull, Closed };

  /// Like submit(), but waits for queue space at most `wait` instead of
  /// blocking indefinitely: QueueFull means the engine stayed saturated
  /// for the whole window and the job was dropped (its seq is never
  /// reused), Closed means finish() has begun. Safe from any thread. When
  /// the job's probe step already ran (a probe() miss), the worker runs
  /// only its execute step.
  Admission try_submit_for(ProbedJob job, std::chrono::milliseconds wait);

  /// Runs the probe step on the calling thread. Thread-safe: it takes no
  /// seq and no queue slot.
  /// Returns true when the probe answered the job; `job.result` is then
  /// final and counted in telemetry exactly as a worker-answered job
  /// (submitted, completed or failed, cache hit, latency, cache_probe).
  /// False means a miss: hand `job` to try_submit_for.
  bool probe(ProbedJob& job);

  /// Closes the queue, drains remaining jobs, and joins the workers. The
  /// sink has seen every submitted job when this returns. Idempotent.
  void finish();

  const JobCounters& job_counters(JobKind kind) const {
    return kinds_.at(static_cast<std::size_t>(kind));
  }
  ResultCache& cache() noexcept { return *cache_; }
  std::size_t queue_high_water() const { return queue_.high_water(); }
  std::size_t worker_count() const noexcept { return pool_.worker_count(); }

  /// Full telemetry document including cache stats and queue high water.
  JsonValue telemetry_to_json() const;

  /// Executes one job in isolation (no queue, no cache) on the same path
  /// the workers take, minus the cache probe and insert. `deadline` uses
  /// steady_clock; time_point::max() disables the timeout.
  static JobResult execute(
      const JobSpec& spec,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// The cache key execute()'s result is stored under - exposed so tests
  /// can seed or poison entries deliberately.
  static CacheKey cache_key(const JobSpec& spec, const ParsedNetwork& net);

  /// Lint jobs have no parsed form; their key hashes the raw text bytes
  /// plus the strictness flag.
  static CacheKey lint_cache_key(const JobSpec& spec);

  /// Search jobs have no network at all; their key hashes the search
  /// parameters (width, mode, depth cap).
  static CacheKey search_cache_key(const JobSpec& spec);

 private:
  JobCounters& counters_of(JobKind kind) {
    return kinds_.at(static_cast<std::size_t>(kind));
  }
  void worker_loop();
  void process(ProbedJob job);
  /// Counts a finished job: its outcome, cache hit or miss, latency
  /// (job.charged plus the time since `start`, minus the probe) and
  /// probe time.
  void account(const ProbedJob& job, ProbedJob::Clock::time_point start);
  /// Claims the miss's cache key for this worker, waiting while another
  /// worker holds it. True when this worker now holds the key; false when
  /// the wait answered the job (a cache hit after the owner's insert, or
  /// a timeout at `deadline`).
  bool claim_key(ProbedJob& job, ProbedJob::Clock::time_point deadline);
  void release_key(const CacheKey& key);

  EngineConfig config_;
  ResultSink sink_;
  std::shared_ptr<ResultCache> cache_;
  CompilationArena* arena_;  // config_.arena or the process-wide global
  std::array<JobCounters, kJobKindCount> kinds_;  // indexed by JobKind
  obs::Counter witness_replays_{"service.witness_revalidations"};
  obs::Counter witness_replay_failures_{
      "service.witness_revalidation_failures"};
  BoundedQueue<ProbedJob> queue_;
  std::atomic<std::uint64_t> next_seq_{0};

  std::mutex sink_mutex_;  // serializes sink_ calls

  std::mutex keys_mutex_;  // guards inflight_keys_
  std::condition_variable key_released_;
  std::unordered_set<CacheKey, CacheKeyHash> inflight_keys_;  // being computed

  std::mutex join_mutex_;
  std::condition_variable workers_done_;
  std::size_t active_workers_ = 0;

  ThreadPool pool_;  // last member: workers must not outlive the state above
};

}  // namespace shufflebound
