// The measurement harness: seeded request streams for each workload, the
// closed loops that drive the batch engine and the loopback server, and
// the set-up timers. Everything here calls the library only through its
// public entry points (AnalysisEngine, Server, find_min_depth_network).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "search/search.hpp"
#include "service/engine.hpp"

namespace perfbench {

// ------------------------------------------------------------ streams --

/// One generated request: the recipe of its network, the job kind and the
/// JSONL line the system receives.
struct Request {
  Recipe recipe;
  JobKind kind = JobKind::Info;
  std::string line;
  /// certify answers pinned while generating: the reference minimal
  /// failing vector, or nullopt for a sorter. Unset = pin when checking.
  std::optional<std::optional<std::uint64_t>> pinned;
};

/// A deterministic request stream: request i is a pure function of the
/// seed and i. nullopt = the corpus is exhausted and the loop stops early.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual std::optional<Request> next() = 0;
  /// Requests per cycle of the stream's fixed family/width mix.
  virtual std::uint64_t cycle_length() const = 0;
  /// Every latency_stride()-th request's latency is kept. Fast workloads
  /// keep a stride so each latency segment (kLatencySegments) holds
  /// ~1000-3000 samples: its tail - the highest percentile with ten
  /// samples beyond it - then sits near p99-p99.5 instead of at the
  /// tenth-worst of thousands of operations, which only the host's
  /// scheduling hiccups decide.
  virtual std::uint64_t latency_stride() const { return 1; }
};

/// prove-wide: distinct analyzer-provable sorters (certify) interleaved
/// with distinct shallow shuffle-based / butterfly networks (refute).
/// Generated on demand, so a long run never holds the whole corpus.
std::unique_ptr<Stream> prove_wide_stream(std::uint64_t seed, double seconds);
/// certify-enum: distinct near-sorters on n = 18..28 that the static
/// analyzer cannot decide, with answers pinned while generating.
std::unique_ptr<Stream> certify_enum_stream(std::uint64_t seed, double seconds);

/// serve-mix: E16's sweep-shaped job mix over a sliding working set of 50
/// random shuffle networks (n = 16) with Zipf repeats, so about 85% of
/// requests hit the cache at any throughput. A key is one (network, job
/// kind) pair. The whole sequence is built before the load starts, so the
/// client spends no time generating.
class ServeMixStream {
 public:
  ServeMixStream(std::uint64_t seed, std::size_t requests);
  /// Index into keys() of the next request; nullopt once the sequence is
  /// used up.
  std::optional<std::size_t> next();
  const std::vector<Request>& keys() const noexcept { return keys_; }

 private:
  std::vector<Request> keys_;
  std::vector<std::size_t> sequence_;
  std::size_t pos_ = 0;
};

/// Length of the serve-mix request sequence for a run of `seconds`.
std::size_t serve_requests(double seconds);

/// The answer a serve-mix key must receive, pinned outside the timed
/// region; empty when the response is right.
Verdict check_serve_answer(const Request& key, const std::string& response);

// -------------------------------------------------------- engine loop --

/// What the sink kept of one result: enough to check it afterwards.
struct JobRecord {
  bool done = false;
  bool ok = false;
  std::string error;
  JsonValue payload;  // certify: the payload; refute: status + certificate
};

struct EngineRun {
  EndToEnd e2e;
  std::vector<Request> requests;   // by submission index
  std::vector<JobRecord> records;  // by submission index
  double dump_us = 0;              // summed JobResult::to_json_line time
  std::uint64_t result_bytes = 0;  // summed result line bytes
};

shufflebound::EngineConfig engine_config();

/// Closed loop: kOutstanding batch lines in flight on a kWorkers engine for
/// `seconds`, then drain. Latency runs from submit (wire parse included,
/// as `batch` does it) to the serialized result line.
/// rss_mb is sampled once `rss_after_ops` results are in (or at the end).
EngineRun run_engine_loop(Stream& stream, double seconds, std::uint64_t rss_after_ops);

/// Process CPU seconds of one engine's start, first trivial answer and
/// shutdown, kSetupReps times.
std::vector<double> engine_setup_times();

/// Checks every result of a prove-wide / certify-enum run; pins certify
/// answers with the reference evaluator (in parallel, untimed).
void check_engine_run(const EngineRun& run, Outcome& out);

// -------------------------------------------------------- search loop --

struct SearchRecord {
  wire_t n = 0;
  double wall_s = 0;
  shufflebound::SearchResult result;
};

struct SearchRun {
  EndToEnd e2e;
  std::vector<SearchRecord> records;
};

/// One search at a time through find_min_depth_network on a kWorkers
/// ThreadPool (the CLI's `search --workers 2` path): exhaustive n = 7
/// repeated 6 times per second of `seconds`, then the exhaustive n = 8 and
/// the existence n = 9 and n = 10 in a seeded order.
SearchRun run_search_loop(std::uint64_t seed, double seconds);

/// Process CPU seconds of one pool's start, a task on every worker and
/// shutdown, kSetupReps times.
std::vector<double> pool_setup_times();

/// Depth equals published_optimal_depth, and each witness sorts under the
/// reference evaluator.
void check_search_run(const SearchRun& run, Outcome& out);

// --------------------------------------------------------- serve loop --

struct ServeRun {
  EndToEnd e2e;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  JsonValue telemetry;  // the `stats` op's engine document
};

/// Process CPU seconds of one server's start (disk-tier open, engine and
/// pool start, listen), a first loopback answer and shutdown, kSetupReps
/// times.
std::vector<double> server_setup_times(const std::string& scratch_dir);

/// One loopback server with a fresh disk tier; a forked client process
/// drives kOutstanding connections, one request outstanding on each, for
/// `seconds`, then checks every answer and reports back.
ServeRun run_serve_loop(std::uint64_t seed, double seconds,
                        const std::string& scratch_dir);

/// Scratch directory for this run inside the checkout's build area.
std::string make_scratch_dir(const std::string& workload);
void remove_tree(const std::string& path);

}  // namespace perfbench
