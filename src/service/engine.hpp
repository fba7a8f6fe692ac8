// The analysis job engine: a concurrent batch service over the library's
// analyses (info / certify / refute / count-sorted).
//
// Shape:
//
//   submit(spec) --> BoundedQueue (backpressure) --> ThreadPool workers
//        --> execute (pure, deterministic)  --> in-order result sink
//                 \-> ResultCache keyed by network fingerprint + params
//
// Contracts the rest of the system builds on:
//
//  * Deterministic output. Results are emitted to the sink in submission
//    order, and each result is a pure function of its spec - so a batch
//    produces byte-identical output for any worker count and any cache
//    state. Telemetry (latency, hits, queue pressure) absorbs all the
//    nondeterminism instead.
//  * Backpressure. At most `queue_capacity` jobs wait between the
//    producer and the workers; submit() blocks past that.
//  * Memoization with re-validation. Completed payloads are cached under
//    the canonical network fingerprint. Cached refutations are not
//    trusted: the witness pair is replayed through the freshly parsed
//    network before being served, and a failing entry is invalidated and
//    recomputed.
//  * Cooperative timeouts. A per-job deadline (spec.timeout_ms, falling
//    back to the engine default; 0 = unlimited) is checked between work
//    chunks (trial blocks, 0-1 sweep batches) and before expensive
//    phases. Timed-out jobs yield an error result and are never cached.
//    Timeouts necessarily break the determinism contract - batches that
//    rely on byte-identical output should run without them.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/queue.hpp"
#include "service/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {

class CompilationArena;

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

class AnalysisEngine {
 public:
  /// `sink` receives every result exactly once, in submission order, from
  /// a worker thread (serialized - never concurrently).
  using ResultSink = std::function<void(const JobResult&)>;

  AnalysisEngine(EngineConfig config, ResultSink sink);

  /// Joins outstanding work (equivalent to finish()).
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Enqueues a job; assigns spec.seq. Blocks while the queue is full
  /// (backpressure). Returns false after finish(). Single producer: call
  /// from one thread at a time (seq assignment orders the output).
  bool submit(JobSpec spec);

  /// Outcome of try_submit_for - the admission-control verdict the server
  /// turns into a structured `overloaded` / `draining` wire response.
  enum class Admission : std::uint8_t { Accepted, QueueFull, Closed };

  /// Like submit(), but waits for queue space at most `wait` instead of
  /// blocking indefinitely: QueueFull means the engine stayed saturated
  /// for the whole window and the job was dropped (no seq consumed, so
  /// result ordering is unaffected), Closed means finish() has begun.
  /// Same single-producer contract as submit().
  Admission try_submit_for(JobSpec spec, std::chrono::milliseconds wait);

  /// Closes the queue, drains remaining jobs, and joins the workers. The
  /// sink has seen every submitted job when this returns. Idempotent.
  void finish();

  const Telemetry& telemetry() const noexcept { return telemetry_; }
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
  void worker_loop();
  void process(JobSpec spec);
  void emit(JobResult result);

  EngineConfig config_;
  ResultSink sink_;
  std::shared_ptr<ResultCache> cache_;
  CompilationArena* arena_;  // config_.arena or the process-wide global
  Telemetry telemetry_;
  BoundedQueue<JobSpec> queue_;
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;

  std::mutex emit_mutex_;
  std::map<std::uint64_t, JobResult> pending_results_;
  std::uint64_t next_emit_ = 0;

  std::mutex join_mutex_;
  std::condition_variable workers_done_;
  std::size_t active_workers_ = 0;

  ThreadPool pool_;  // last member: workers must not outlive the state above
};

}  // namespace shufflebound
