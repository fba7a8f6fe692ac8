#include "harness.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "analyze/analyzer.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/arena.hpp"

namespace perfbench {

using namespace shufflebound;

namespace {

/// Runs body(i) for i in [0, count) on up to four threads - the checker's
/// own fan-out, outside every timed region.
void parallel_check(std::size_t count, const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < count; i = next++) body(i);
  };
  std::vector<std::thread> threads;
  const std::size_t extra =
      std::min<std::size_t>(3, std::max(1u, std::thread::hardware_concurrency()) - 1);
  for (std::size_t t = 0; t < extra; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

constexpr const char* kTinyNetwork = "circuit 4\nlevel 0+1 2+3\nlevel 0+2 1+3\nend\n";

/// Cycles through a fixed multiset of slots, reshuffled per cycle by a
/// fixed generator: every seed sees the same families and widths in the
/// same order (so head-of-line blocking in the in-order engine is the same
/// from seed to seed) while the seed varies every network.
template <typename Slot>
class SlotCycle {
 public:
  explicit SlotCycle(std::vector<Slot> slots) : slots_(std::move(slots)) {}
  const Slot& next() {
    if (pos_ == 0) shuffle_in_place(slots_, order_);
    const Slot& slot = slots_[pos_];
    pos_ = (pos_ + 1) % slots_.size();
    return slot;
  }
  std::size_t size() const noexcept { return slots_.size(); }

 private:
  std::vector<Slot> slots_;
  Prng order_{0x0D3E7ull};
  std::size_t pos_ = 0;
};

struct Slot {
  Family family;
  wire_t n;
  std::uint32_t depth;  // refute slots only (Recipe::depth)
  JobKind kind;
};

using RecipeKey = std::tuple<int, int, wire_t, wire_t, int, wire_t, wire_t, std::size_t>;

RecipeKey key_of(const Recipe& r, JobKind kind) {
  return {static_cast<int>(r.family), static_cast<int>(kind), r.n, r.offset,
          static_cast<int>(r.mod), r.a, r.b, r.level};
}

/// Draws the appended comparator of a redundant-tail sorter.
void draw_tail(Recipe& r, Prng& rng) {
  r.a = static_cast<wire_t>(rng.below(r.n));
  do {
    r.b = static_cast<wire_t>(rng.below(r.n));
  } while (r.b == r.a);
  if (r.a > r.b) std::swap(r.a, r.b);
}

class ProveWideStream final : public Stream {
 public:
  explicit ProveWideStream(std::uint64_t seed)
      : rng_(seed ^ 0x9E0FE0D1DEull),
        cycle_(make_slots()) {}

  std::optional<Request> next() override {
    const Slot& slot = cycle_.next();
    Request req;
    req.kind = slot.kind;
    req.recipe.family = slot.family;
    req.recipe.n = slot.n;
    req.recipe.depth = slot.depth;
    if (slot.kind == JobKind::Certify) {
      // Distinct redundant tails keep every certify a cache miss.
      do {
        draw_tail(req.recipe, rng_);
      } while (!used_.insert(key_of(req.recipe, req.kind)).second);
    } else {
      req.recipe.seed = rng_();
    }
    req.line = request_line("j" + std::to_string(count_++), req.kind,
                            text_of(build(req.recipe)));
    return req;
  }

  std::uint64_t cycle_length() const override { return cycle_.size(); }

 private:
  /// About half the busy time certifies (~260 ms of analyzer work per
  /// cycle), half refutes (each refute slot four times per cycle).
  static std::vector<Slot> make_slots() {
    std::vector<Slot> slots;
    for (const Family family : {Family::Bitonic, Family::Oem})
      for (const wire_t n : {64u, 128u, 256u})
        slots.push_back({family, n, 0, JobKind::Certify});
    for (const wire_t n : {64u, 128u, 192u})
      slots.push_back({Family::Brick, n, 0, JobKind::Certify});
    // Shuffle depths are 2-3 lg n-level chunks.
    const Slot refutes[] = {
        {Family::Shuffle, 256, 16, JobKind::Refute},
        {Family::Shuffle, 1024, 20, JobKind::Refute},
        {Family::Shuffle, 4096, 24, JobKind::Refute},
        {Family::Shuffle, 4096, 36, JobKind::Refute},
        {Family::Butterfly, 256, 4, JobKind::Refute},
        {Family::Butterfly, 1024, 2, JobKind::Refute},
        {Family::Butterfly, 1024, 4, JobKind::Refute},
        {Family::Butterfly, 4096, 2, JobKind::Refute},
    };
    for (int copy = 0; copy < 4; ++copy)
      slots.insert(slots.end(), std::begin(refutes), std::end(refutes));
    return slots;
  }

  Prng rng_;
  SlotCycle<Slot> cycle_;
  std::set<RecipeKey> used_;
  std::uint64_t count_ = 0;
};

/// Pre-generated before the timed loop: pinning every answer with the
/// reference evaluator costs about half a job, too much for the one
/// line-building thread to keep two workers fed. Job i is a pure function
/// of (seed, i), so the corpus is built in parallel and stays
/// deterministic. Only the recipes and pinned answers are kept; each
/// request line is built just before it is sent, so the corpus adds little
/// to the measured peak RSS.
class CertifyEnumStream final : public Stream {
  static constexpr std::uint64_t kPinLimit = std::uint64_t{1} << 18;

 public:
  CertifyEnumStream(std::uint64_t seed, std::size_t count) {
    SlotCycle<Slot> cycle(make_slots());
    cycle_length_ = 2 * cycle.size();
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < count; ++i) slots.push_back(cycle.next());
    std::vector<std::optional<Request>> made(count);
    parallel_check(count, [&](std::size_t i) {
      std::uint64_t mix = seed ^ (0xCE27E1A0ull * (i + 1));
      Prng rng(splitmix64(mix));
      made[i] = make(slots[i], rng);
    });
    std::set<RecipeKey> used;
    for (std::optional<Request>& req : made)
      if (req && used.insert(key_of(req->recipe, req->kind)).second)
        jobs_.push_back(std::move(*req));
  }

  std::optional<Request> next() override {
    if (pos_ == jobs_.size()) return std::nullopt;
    Request req = jobs_[pos_];
    req.line = request_line("j" + std::to_string(pos_++), req.kind, text_of(build(req.recipe)));
    return req;
  }

  /// Two cycles: one cycle's cost swings with how many of its
  /// near-sorters happen to sort.
  std::uint64_t cycle_length() const override { return cycle_length_; }
  /// Thousands of jobs a run: keep every 4th latency.
  std::uint64_t latency_stride() const override { return 4; }

 private:
  /// Brick sorters defeat the frontier engine: past n = 22 each of their
  /// budget-bounded frontier attempts costs ~70 ms before the fallback
  /// sweep, and those few jobs alone decided the tail. They stay at
  /// n <= 22, where the attempt-then-fallback path is cheap.
  static std::vector<Slot> make_slots() {
    std::vector<Slot> slots;
    for (const Family family : {Family::BitonicPruned, Family::OemPruned})
      for (wire_t n = 18; n <= 28; ++n)
        slots.push_back({family, n, 0, JobKind::Certify});
    for (wire_t n = 18; n <= 22; ++n)
      slots.push_back({Family::Brick, n, 0, JobKind::Certify});
    return slots;
  }

  static std::optional<Request> make(const Slot& slot, Prng& rng) {
    const bool pruned = slot.family != Family::Brick;
    for (int attempt = 0; attempt < 256; ++attempt) {
      Recipe r;
      r.family = slot.family;
      r.n = slot.n;
      // Any window of the 32-wire sorter sorts; the window multiplies the
      // distinct near-sorters a width offers.
      if (pruned) r.offset = static_cast<wire_t>(rng.below(kPrunedWidth - slot.n + 1));
      const ComparatorNetwork base = base_sorter(slot.family, slot.n, r.offset);
      r.mod = rng.chance(1, 2) ? Mod::Remove : Mod::Insert;
      if (r.mod == Mod::Remove) {
        r.a = static_cast<wire_t>(rng.below(base.comparator_count()));
      } else {
        draw_tail(r, rng);
        r.level = 1 + static_cast<std::size_t>(rng.below(base.depth() - 1));
      }
      const Network net = build(r);
      const auto& circuit = std::get<ComparatorNetwork>(net);
      // Only networks the static analyzer cannot decide: the enumerative
      // engines must do the work.
      if (analyze(circuit).verdict != AnalyzeVerdict::Inconclusive) continue;
      // Keep a job's cost bounded and its answer pinned up front: a
      // failure below kPinLimit, or a sorter small enough to sweep whole.
      // Without this a few late-failing networks (whose sweep and relabel
      // sweep run to ~2^28) decide a run's throughput; at 2^20 the jobs
      // failing near the limit still swung it by 25% from seed to seed.
      const auto failing = reference_failing_vector(circuit, kPinLimit);
      if (!failing && (std::uint64_t{1} << r.n) > kPinLimit) continue;
      // The engine runs the relabel sweep on every non-sorter; it too must
      // end below kPinLimit, or a few such jobs decide the tail.
      if (failing && !reference_relabel_diverges(circuit, kPinLimit)) continue;
      Request req;
      req.kind = JobKind::Certify;
      req.pinned = failing;
      req.recipe = r;
      return req;
    }
    return std::nullopt;
  }

  std::vector<Request> jobs_;
  std::size_t pos_ = 0;
  std::uint64_t cycle_length_ = 0;
};

}  // namespace

std::unique_ptr<Stream> prove_wide_stream(std::uint64_t seed, double) {
  return std::make_unique<ProveWideStream>(seed);
}

std::unique_ptr<Stream> certify_enum_stream(std::uint64_t seed, double seconds) {
  // Sized for about 1300 jobs a second, 40% above what two workers finish
  // today (generating it is most of a run's set-up). A faster engine that
  // drains it ends the loop early.
  return std::make_unique<CertifyEnumStream>(
      seed, static_cast<std::size_t>(std::ceil(1300 * seconds)));
}

// ------------------------------------------------------ serve-mix keys --

namespace {

/// The sweep-shaped mix of E16 (bench/bench_e16_service_throughput.cpp):
/// count-sorted at 16384 trials is the majority, certify, refute and info
/// take one share each, and analyze and lint join with one share each -
/// 5/10 count-sorted, 1/10 each of the rest. Refutes stay a minority
/// because every cached refutation is revalidated on a hit.
JobKind serve_kind(std::uint64_t roll) {
  switch (roll) {
    case 0: return JobKind::Info;
    case 1: return JobKind::Certify;
    case 2: return JobKind::Refute;
    case 3: return JobKind::Analyze;
    case 4: return JobKind::Lint;
    default: return JobKind::CountSorted;
  }
}

constexpr std::uint64_t kServeTrials = 16384;
constexpr std::uint64_t kServeCountSeed = 16;
/// The networks a sweep works on at once. Every kServeEntryEvery-th
/// request a new network joins and the oldest leaves, as a sweep moves
/// on; that keeps the cache hit share near 85% for the whole run instead
/// of climbing toward 100% once the first networks are warm.
constexpr std::size_t kServeWorkingSet = 50;
constexpr std::size_t kServeEntryEvery = 40;

}  // namespace

/// Sized for about 12000 requests a second, well above what two
/// connections finish today; a faster server that drains the sequence ends
/// the run early.
std::size_t serve_requests(double seconds) {
  return static_cast<std::size_t>(std::ceil(12000 * seconds));
}

ServeMixStream::ServeMixStream(std::uint64_t seed, std::size_t requests) {
  Prng rng(seed ^ 0x5E27E3Dull);
  std::vector<Recipe> networks;
  std::deque<std::size_t> working;  // indices into networks, newest first
  std::map<std::pair<std::size_t, JobKind>, std::size_t> key_index;
  sequence_.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i % kServeEntryEvery == 0) {
      // E16's networks: random shuffle-based, n = 16, depth 4..8.
      Recipe r{Family::Shuffle, 16, static_cast<std::uint32_t>(4 + rng.below(5))};
      r.seed = rng();
      networks.push_back(r);
      working.push_front(networks.size() - 1);
      if (working.size() > kServeWorkingSet) working.pop_back();
    }
    // Zipf (s = 1) over the working set, newest first:
    // P(rank <= r) ~ ln r / ln K.
    const double span = std::log(static_cast<double>(working.size()) + 1.0);
    const auto rank = static_cast<std::size_t>(std::exp(rng.uniform01() * span));
    const std::size_t net = working[std::clamp<std::size_t>(rank, 1, working.size()) - 1];
    const JobKind kind = serve_kind(rng.below(10));
    const auto [it, fresh] = key_index.try_emplace({net, kind}, keys_.size());
    if (fresh) {
      Request key;
      key.recipe = networks[net];
      key.kind = kind;
      keys_.push_back(std::move(key));
    }
    sequence_.push_back(it->second);
  }
  parallel_check(keys_.size(), [&](std::size_t k) {
    Request& key = keys_[k];
    key.line = request_line("k" + std::to_string(k), key.kind,
                            text_of(build(key.recipe)), kServeTrials, kServeCountSeed);
  });
}

std::optional<std::size_t> ServeMixStream::next() {
  if (pos_ == sequence_.size()) return std::nullopt;
  return sequence_[pos_++];
}

Verdict check_serve_answer(const Request& key, const std::string& response) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(response);
  } catch (const std::exception& e) {
    return std::string("unparseable response: ") + e.what();
  }
  const JsonValue* ok = doc.find("ok");
  const JsonValue* payload = doc.find("result");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || payload == nullptr)
    return std::string(job_kind_name(key.kind)) + " failed: " + response.substr(0, 160);
  const Network net = build(key.recipe);
  const Circuit circuit = circuit_of(net);
  switch (key.kind) {
    case JobKind::Certify:
      return check_certify(*payload, circuit, reference_failing_vector(circuit));
    case JobKind::Refute:
      // At n = 16 the paper's bound guarantees no refutation, and a few
      // of E16's networks leave the adversary too few survivors.
      return check_refute(*payload, net, /*no_claim_ok=*/true);
    case JobKind::Analyze: {
      // analyze reads the flattened circuit with its outputs in wire order.
      const Circuit wires(circuit.net);
      const JsonValue* v = payload->find("verdict");
      const std::string verdict = v != nullptr && v->is_string() ? v->as_string() : "";
      if (verdict == "sorting" && reference_failing_vector(wires))
        return std::string("analyze: certified a non-sorter");
      if (verdict == "sorting-up-to-relabel" && !reference_relabel_ranks(wires))
        return std::string("analyze: unsound relabel certification");
      return std::nullopt;
    }
    case JobKind::CountSorted: {
      const JsonValue* sorted = payload->find("sorted");
      const std::uint64_t expect =
          reference_count_sorted(circuit, kServeTrials, kServeCountSeed);
      if (sorted == nullptr || !sorted->is_number() || sorted->as_uint() != expect)
        return "count-sorted: expected " + std::to_string(expect) + " sorted";
      return std::nullopt;
    }
    case JobKind::Info: {
      const auto num = [&](const char* k) {
        const JsonValue* v = payload->find(k);
        return v != nullptr && v->is_number() ? v->as_uint() : ~0ull;
      };
      if (num("width") != circuit.net.width() || num("depth") != circuit.net.depth() ||
          num("comparators") != circuit.net.comparator_count())
        return std::string("info: shape differs from the construction");
      return std::nullopt;
    }
    case JobKind::Lint:
      return std::nullopt;  // ok == true: the network lints clean
    default:
      return std::string("unexpected job kind");
  }
}

// -------------------------------------------------------- engine loop --

EngineConfig engine_config() {
  EngineConfig config;
  config.workers = kWorkers;
  config.queue_capacity = 64;
  config.cache_enabled = true;
  // A private, empty compile arena per engine: no run inherits tables.
  config.arena = std::make_shared<CompilationArena>();
  return config;
}

namespace {

/// Request lines built ahead of the loop: one per slot, so a completion
/// that frees both slots (the in-order engine emits a held result right
/// after the one it waited for) can send two at once.
constexpr std::size_t kReadyAhead = kOutstanding;

}  // namespace

EngineRun run_engine_loop(Stream& stream, double seconds, std::uint64_t rss_after_ops) {
  reset_peak_rss();  // the stream's corpus is built; the engine's memory is what counts
  EngineRun run;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Clock::time_point> submitted_at;
  std::deque<Request> ready;
  std::size_t inflight = 0;
  bool stopped = false;  // the deadline passed: nothing more is sent
  bool exhausted = false;
  Clock::time_point last_done;
  // This thread only builds request lines; its CPU is the generator's, not
  // the system's, and is taken out of every CPU figure.
  const pthread_t builder = ::pthread_self();
  const auto system_cpu = [&] { return process_cpu_seconds() - thread_cpu_seconds(builder); };
  std::optional<WindowMeter> meter;
  Clock::time_point deadline;
  AnalysisEngine* engine_ptr = nullptr;

  // Sends ready lines while a slot is free; mutex held. The line's wire
  // parse is part of the request, as in `batch`.
  const auto send_ready = [&] {
    while (!stopped && inflight < kOutstanding && !ready.empty()) {
      Request req = std::move(ready.front());
      ready.pop_front();
      const std::size_t index = run.requests.size();
      submitted_at.push_back(Clock::now());
      run.records.emplace_back();
      ++inflight;
      engine_ptr->submit(job_from_json_line(req.line, index + 1));
      req.line = std::string();  // the checker rebuilds networks from recipes
      run.requests.push_back(std::move(req));
    }
  };

  // Closed loop: each completion sends the next line from the worker that
  // emitted it, so the loop adds no thread wake-up of its own between a
  // result and the next request.
  AnalysisEngine engine(engine_config(), [&](const JobResult& result) {
    const Clock::time_point dump_start = Clock::now();
    const std::string line = result.to_json_line();
    const Clock::time_point done = Clock::now();
    JobRecord record;
    record.done = true;
    record.ok = result.ok;
    record.error = result.error;
    if (result.kind == JobKind::Certify) {
      record.payload = result.payload;
    } else if (result.kind == JobKind::Refute && result.ok) {
      record.payload = JsonValue::object();
      for (const char* key : {"status", "certificate"})
        if (const JsonValue* v = result.payload.find(key)) record.payload.set(key, *v);
    }
    std::scoped_lock lock(mutex);
    const std::size_t seq = static_cast<std::size_t>(result.seq);
    if (seq % stream.latency_stride() == 0)
      run.e2e.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(done - submitted_at[seq]).count());
    run.dump_us += std::chrono::duration<double, std::micro>(done - dump_start).count();
    run.result_bytes += line.size();
    run.records[seq] = std::move(record);
    --inflight;
    if (++run.e2e.completed == rss_after_ops) run.e2e.rss_mb = peak_rss_mb();
    last_done = done;
    meter->observe(done, run.e2e.completed, system_cpu());
    if (done >= deadline) stopped = true;
    send_ready();
    cv.notify_all();  // the builder refills what was sent
  });
  engine_ptr = &engine;

  std::unique_lock lock(mutex);
  for (std::size_t i = 0; i < kOutstanding + kReadyAhead; ++i) {
    std::optional<Request> next = stream.next();
    if (!next) break;
    ready.push_back(std::move(*next));
  }
  const Clock::time_point start = Clock::now();
  const double cpu_start = system_cpu();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  meter.emplace(stream.cycle_length(), start, cpu_start);
  send_ready();
  while (!exhausted) {
    cv.wait(lock, [&] { return stopped || ready.size() < kReadyAhead; });
    if (stopped) break;
    lock.unlock();
    std::optional<Request> next = stream.next();
    lock.lock();
    if (next) {
      ready.push_back(std::move(*next));
      send_ready();  // a slot the sink found nothing ready for
    } else {
      exhausted = true;
    }
  }
  cv.wait(lock, [&] { return inflight == 0 && (stopped || ready.empty()); });
  stopped = true;
  lock.unlock();
  engine.finish();
  meter->finish(run.e2e);
  run.e2e.latency_segments = kLatencySegments;
  if (run.e2e.rss_mb == 0) run.e2e.rss_mb = peak_rss_mb();
  run.e2e.wall_s = seconds_between(start, last_done);
  run.e2e.cpu_s = system_cpu() - cpu_start;
  return run;
}

std::vector<double> engine_setup_times() {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double cpu_start = process_cpu_seconds();
    {
      std::mutex mutex;
      std::condition_variable cv;
      bool answered = false;
      AnalysisEngine engine(engine_config(), [&](const JobResult&) {
        std::scoped_lock lock(mutex);
        answered = true;
        cv.notify_all();
      });
      engine.submit(job_from_json_line(request_line("setup", JobKind::Info, kTinyNetwork), 1));
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return answered; });
    }  // shutdown joins the workers, so all their CPU is counted
    times.push_back(process_cpu_seconds() - cpu_start);
  }
  return times;
}

void check_engine_run(const EngineRun& run, Outcome& out) {
  std::vector<Verdict> verdicts(run.requests.size());
  parallel_check(run.requests.size(), [&](std::size_t i) {
    const JobRecord& record = run.records[i];
    const Request& req = run.requests[i];
    if (!record.done) {
      verdicts[i] = "missing answer for " + req.line.substr(0, 40);
      return;
    }
    if (!record.ok) {
      verdicts[i] = std::string(job_kind_name(req.kind)) + " failed: " + record.error;
      return;
    }
    const Network net = build(req.recipe);
    if (req.kind == JobKind::Refute) {
      verdicts[i] = check_refute(record.payload, net);
    } else {
      const Circuit circuit = circuit_of(net);
      verdicts[i] = check_certify(
          record.payload, circuit,
          req.pinned                              ? *req.pinned
          : req.recipe.mod == Mod::RedundantTail  ? std::nullopt
                                                  : reference_failing_vector(circuit));
    }
  });
  out.attempted += run.requests.size();
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    if (verdicts[i]) note_problem(out, "j" + std::to_string(i) + ": " + *verdicts[i]);
}

// -------------------------------------------------------- search loop --

namespace {
/// Exhaustive n = 7 searches per second of run (~85 ms each today).
constexpr double kSearchRepeatsPerSecond = 6;
}  // namespace

SearchRun run_search_loop(std::uint64_t seed, double seconds) {
  // The widths are the whole input of a search; the seed only orders the
  // three large searches. The repeated n = 7 searches run first, on a heap
  // the large searches have not yet churned. Their count is fixed by
  // `seconds` (about half the run today), not by the clock: with a
  // time-based count a slower host ran fewer cheap searches beside the
  // same large ones, and CPU per search moved twice as much as the host.
  std::vector<wire_t> schedule(
      static_cast<std::size_t>(std::ceil(kSearchRepeatsPerSecond * seconds)), 7);
  std::vector<wire_t> large = {8, 9, 10};
  Prng rng(seed ^ 0x5EA2C4ull);
  shuffle_in_place(large, rng);
  schedule.insert(schedule.end(), large.begin(), large.end());
  reset_peak_rss();
  SearchRun run;
  ThreadPool pool(kWorkers);
  SearchOptions options;
  options.pool = &pool;
  const Clock::time_point start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  Clock::time_point now = start;
  for (const wire_t n : schedule) {
    SearchRecord record;
    record.n = n;
    const Clock::time_point t0 = Clock::now();
    record.result = find_min_depth_network(n, options);
    now = Clock::now();
    record.wall_s = seconds_between(t0, now);
    run.e2e.latency_ms.push_back(record.wall_s * 1e3);
    run.records.push_back(std::move(record));
  }
  run.e2e.rss_mb = peak_rss_mb();
  run.e2e.completed = run.records.size();
  run.e2e.wall_s = seconds_between(start, now);
  run.e2e.cpu_s = process_cpu_seconds() - cpu_start;
  return run;
}

std::vector<double> pool_setup_times() {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double cpu_start = process_cpu_seconds();
    {
      ThreadPool pool(kWorkers);
      std::atomic<std::size_t> ran{0};
      pool.parallel_for(0, kWorkers + 1, [&](std::size_t) { ++ran; });
    }  // shutdown joins the workers, so all their CPU is counted
    times.push_back(process_cpu_seconds() - cpu_start);
  }
  return times;
}

void check_search_run(const SearchRun& run, Outcome& out) {
  out.attempted += run.records.size();
  for (const SearchRecord& record : run.records) {
    const SearchResult& r = record.result;
    const std::string tag = "search n=" + std::to_string(record.n) + ": ";
    const auto published = published_optimal_depth(record.n);
    if (r.status != SearchStatus::Optimal || !published ||
        r.optimal_depth != *published) {
      note_problem(out, tag + "depth differs from the published optimum");
    } else if (record.n <= kExhaustiveSearchWidthCap &&
               r.lower_bound_source != LowerBoundSource::Exhaustive) {
      note_problem(out, tag + "optimality not proven exhaustively");
    } else if (r.network.width() != record.n || r.network.depth() != *published ||
               reference_failing_vector(r.network)) {
      note_problem(out, tag + "witness does not sort at the optimal depth");
    }
  }
}

// --------------------------------------------------------- serve loop --

namespace {

/// One line-oriented client connection (the child process's side).
class LineConn {
 public:
  explicit LineConn(std::uint16_t port)
      : fd_(client_connect(ClientConfig{"127.0.0.1", port})) {}
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool round_trip(const std::string& line, std::string& response) {
    std::string framed = line;
    framed.push_back('\n');
    for (std::size_t off = 0; off < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        response.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Responses after which the server samples its peak RSS.
constexpr std::uint64_t kServeRssAfter = 20000;
/// Every kServeLatencyStride-th response's latency is kept (~10000 in 20 s,
/// ~2000 per latency segment; see Stream::latency_stride).
constexpr std::uint64_t kServeLatencyStride = 10;
/// Responses per throughput window: short windows, so the median sees
/// past the bursts of scheduling delay a shared host adds to round trips.
constexpr std::uint64_t kServeWindow = 500;

/// The forked client: drives the load, checks every answer, and writes a
/// JSON summary to `out_fd`, preceded by one byte once kServeRssAfter
/// responses are in (the server's cue to sample its peak RSS). Never
/// returns to the caller's stack.
[[noreturn]] void client_process(std::uint16_t port, std::uint64_t seed,
                                 double seconds, int out_fd) {
  ServeMixStream stream(seed, serve_requests(seconds));
  std::mutex mutex;
  std::vector<std::string> first_response(stream.keys().size());
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  bool milestone_sent = false;
  const auto send_milestone = [&] {
    const char byte = 'W';
    milestone_sent = ::write(out_fd, &byte, 1) == 1;
  };
  const auto problem = [&](std::string what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(std::move(what));
  };

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last_done = start;
  WindowMeter meter(kServeWindow, start, -1);
  std::vector<std::thread> connections;
  for (std::size_t c = 0; c < kOutstanding; ++c) {
    connections.emplace_back([&] {
      LineConn conn(port);
      std::string response;
      for (;;) {
        std::size_t key;
        {
          std::scoped_lock lock(mutex);
          const std::optional<std::size_t> next = stream.next();
          if (!next || Clock::now() >= deadline) return;
          key = *next;
          ++attempted;
        }
        const Clock::time_point t0 = Clock::now();
        const bool ok = conn.round_trip(stream.keys()[key].line, response);
        const Clock::time_point t1 = Clock::now();
        std::scoped_lock lock(mutex);
        if (!ok) {
          problem("connection lost");
          return;
        }
        if (answered % kServeLatencyStride == 0)
          latency_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (++answered == kServeRssAfter) send_milestone();
        meter.observe(t1, answered, -1);
        last_done = std::max(last_done, t1);
        if (response.find("\"code\":\"overloaded\"") != std::string::npos) {
          problem("overloaded");
        } else if (first_response[key].empty()) {
          first_response[key] = response;
        } else if (first_response[key] != response) {
          problem("k" + std::to_string(key) + ": cache hit differs from its miss");
        }
      }
    });
  }
  for (std::thread& t : connections) t.join();
  if (!milestone_sent) send_milestone();
  const double wall = seconds_between(start, last_done);

  std::vector<Verdict> verdicts(first_response.size());
  parallel_check(first_response.size(), [&](std::size_t k) {
    if (!first_response[k].empty())
      verdicts[k] = check_serve_answer(stream.keys()[k], first_response[k]);
  });
  for (std::size_t k = 0; k < verdicts.size(); ++k)
    if (verdicts[k]) problem("k" + std::to_string(k) + ": " + *verdicts[k]);

  JsonValue summary = JsonValue::object();
  EndToEnd windows;
  meter.finish(windows);
  summary.set("window_ops_per_s", json_array(windows.window_ops_per_s));
  summary.set("attempted", attempted);
  summary.set("answered", answered);
  summary.set("failed", failed);
  summary.set("wall_s", wall);
  summary.set("keys", static_cast<std::uint64_t>(stream.keys().size()));
  summary.set("latency_ms", json_array(latency_ms));
  JsonValue probs = JsonValue::array();
  for (const std::string& p : problems) probs.push_back(p);
  summary.set("problems", std::move(probs));
  const std::string text = summary.dump();
  for (std::size_t off = 0; off < text.size();) {
    const ssize_t n = ::write(out_fd, text.data() + off, text.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(out_fd);
  ::_exit(0);
}

ServerConfig server_config(const std::string& cache_dir) {
  ServerConfig config;
  config.workers = kWorkers;
  config.queue_capacity = 64;
  config.cache_dir = cache_dir;
  return config;
}

}  // namespace

std::vector<double> server_setup_times(const std::string& scratch_dir) {
  std::vector<double> times;
  const std::string line = request_line("setup", JobKind::Info, kTinyNetwork);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string dir = scratch_dir + "/setup-" + std::to_string(rep);
    std::string response;
    bool answered = false;
    const double cpu_start = process_cpu_seconds();
    {
      Server server(server_config(dir));
      server.listen();
      std::thread serving([&] { server.run(); });
      {
        LineConn conn(server.bound_port());
        answered = conn.round_trip(line, response);
      }
      server.request_shutdown();
      serving.join();
    }  // shutdown joins every server thread, so all their CPU is counted
    times.push_back(process_cpu_seconds() - cpu_start);
    if (!answered) throw std::runtime_error("server set-up probe got no answer");
    remove_tree(dir);
  }
  return times;
}

ServeRun run_serve_loop(std::uint64_t seed, double seconds,
                        const std::string& scratch_dir) {
  int port_pipe[2];
  int result_pipe[2];
  if (::pipe(port_pipe) != 0 || ::pipe(result_pipe) != 0)
    throw std::runtime_error("serve-mix: pipe() failed");
  // Fork while this process is single-threaded; the server starts after.
  const pid_t child = ::fork();
  if (child < 0) throw std::runtime_error("serve-mix: fork() failed");
  if (child == 0) {
    ::close(port_pipe[1]);
    ::close(result_pipe[0]);
    std::uint16_t port = 0;
    if (::read(port_pipe[0], &port, sizeof port) != sizeof port) ::_exit(3);
    ::close(port_pipe[0]);
    ::alarm(170);  // never outlive the benchmark's own time limit
    client_process(port, seed, seconds, result_pipe[1]);
  }
  ::close(port_pipe[0]);
  ::close(result_pipe[1]);

  ServeRun run;
  std::string summary;
  try {
    std::filesystem::create_directories(scratch_dir);
    const std::string dir = scratch_dir + "/serve-cache";
    // The server's engine compiles through the process-wide arena: every
    // run starts it empty.
    CompilationArena::global().clear();
    reset_peak_rss();
    Server server(server_config(dir));
    server.listen();
    std::thread serving([&] { server.run(); });
    const double cpu_start = process_cpu_seconds();
    const std::uint16_t port = server.bound_port();
    const bool handed = ::write(port_pipe[1], &port, sizeof port) == sizeof port;
    ::close(port_pipe[1]);
    port_pipe[1] = -1;
    char milestone = 0;
    if (handed && ::read(result_pipe[0], &milestone, 1) == 1) run.e2e.rss_mb = peak_rss_mb();
    char chunk[65536];
    while (handed) {
      const ssize_t n = ::read(result_pipe[0], chunk, sizeof chunk);
      if (n <= 0) break;
      summary.append(chunk, static_cast<std::size_t>(n));
    }
    run.e2e.cpu_s = process_cpu_seconds() - cpu_start;
    run.telemetry = server.engine().telemetry_to_json();
    server.request_shutdown();
    serving.join();
    if (!handed) throw std::runtime_error("serve-mix: cannot hand the port to the client");
  } catch (...) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    throw;
  }
  if (port_pipe[1] >= 0) ::close(port_pipe[1]);
  ::close(result_pipe[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || summary.empty())
    throw std::runtime_error("serve-mix: client process failed");

  const JsonValue doc = JsonValue::parse(summary);
  run.attempted = doc.find("attempted")->as_uint();
  run.failed = doc.find("failed")->as_uint();
  run.e2e.wall_s = doc.find("wall_s")->as_double();
  for (const JsonValue& v : doc.find("latency_ms")->items())
    run.e2e.latency_ms.push_back(v.as_double());
  run.e2e.latency_segments = kLatencySegments;
  for (const JsonValue& v : doc.find("window_ops_per_s")->items())
    run.e2e.window_ops_per_s.push_back(v.as_double());
  run.e2e.completed = doc.find("answered")->as_uint();
  for (const JsonValue& p : doc.find("problems")->items()) run.problems.push_back(p.as_string());
  return run;
}

std::string make_scratch_dir(const std::string& workload) {
  const char* base = std::getenv("CARGO_TARGET_DIR");
  const std::string root = base != nullptr && base[0] != '\0' ? base : ".bench_build";
  const std::string dir =
      root + "/scratch/" + workload + "-" + std::to_string(::getpid());
  remove_tree(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
