#include "service/engine.hpp"

#include <cstdio>
#include <stdexcept>

#include "adversary/certificate.hpp"
#include "adversary/lemma41.hpp"
#include "adversary/refuter.hpp"
#include "analysis/sortedness.hpp"
#include "analyze/analyzer.hpp"
#include "lint/linter.hpp"
#include "core/io.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "search/search.hpp"
#include "sim/arena.hpp"
#include "sim/batch.hpp"
#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/isa.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace shufflebound {

namespace {

using Clock = std::chrono::steady_clock;

/// Internal control-flow signal for cooperative timeouts.
struct JobTimeout {};

void check_deadline(Clock::time_point deadline) {
  if (deadline != Clock::time_point::max() && Clock::now() >= deadline)
    throw JobTimeout{};
}

std::string hex_u64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

JsonValue wires_to_json(std::span<const wire_t> values) {
  JsonValue::Array arr;
  arr.reserve(values.size());
  for (const wire_t v : values) arr.emplace_back(static_cast<unsigned>(v));
  return JsonValue(std::move(arr));
}

// Arena purpose salts: the compiled table depends on WHAT is compiled,
// not just which network. Certifying a circuit compiles its redundancy-
// eliminated form; count-sorted and witness revalidation compile the raw
// parse (and so does certifying a register program, which skips
// elimination) - same fingerprint, different tables, distinct arena
// slots.
constexpr std::uint64_t kArenaSaltPlain = 0x706C61696Eull;    // "plain"
constexpr std::uint64_t kArenaSaltCertify = 0x6365727469ull;  // "certi"

Fingerprint model_fingerprint(const ParsedNetwork& net) {
  return net.visit([](const auto& model) { return fingerprint(model); });
}

ArenaKey arena_key_of(const Fingerprint& fp, std::uint64_t salt) {
  return ArenaKey{fp.hi, fp.lo}.derived(salt);
}

/// The raw parse compiled once per network through the plain-salt slot;
/// `fp` is the network's fingerprint.
std::shared_ptr<const CompiledNetwork> plain_compiled(const ParsedNetwork& net,
                                                      const Fingerprint& fp,
                                                      CompilationArena& arena) {
  return arena.get_or_compile(arena_key_of(fp, kArenaSaltPlain), [&net] {
    return net.visit([](const auto& model) { return compile(model); });
  });
}

// ---------------------------------------------------------------- info --

JsonValue info_payload(const ParsedNetwork& net) {
  const NetworkStats stats = net.visit_circuit(
      [](const ComparatorNetwork& circuit) { return network_stats(circuit); });
  JsonValue payload = JsonValue::object();
  payload.set("model", net.model_name());
  payload.set("width", stats.width);
  payload.set("depth", static_cast<std::uint64_t>(stats.depth));
  payload.set("comparators", static_cast<std::uint64_t>(stats.comparators));
  payload.set("exchanges", static_cast<std::uint64_t>(stats.exchanges));
  payload.set("empty_levels", static_cast<std::uint64_t>(stats.empty_levels));
  const auto* circuit = std::get_if<ComparatorNetwork>(&net.model);
  if (circuit != nullptr && is_pow2(stats.width) &&
      stats.depth == log2_exact(stats.width)) {
    payload.set("rdn_recognized", recognize_rdn(*circuit).has_value());
  }
  return payload;
}

// ------------------------------------------------------------- certify --

template <typename Net>
JsonValue certify_payload(const Net& net, Clock::time_point deadline,
                          CompilationArena& arena, const ArenaKey& key) {
  // The strict-then-relabel decision (certify_sorting,
  // sim/bitparallel.hpp). Jobs stay single-threaded (no pool: job-level
  // parallelism lives across jobs); the progress hook runs the
  // cooperative deadline - once per frontier level, once per sweep lane
  // block, once per relabel sweep block. The arena shares the compiled
  // (and for circuits, redundancy-eliminated) op table across every job
  // over the same network.
  CertifyOptions opts;
  opts.progress = [deadline] { check_deadline(deadline); };
  opts.arena = &arena;
  opts.arena_key = key;
  const SortingReport report = certify_sorting(net, opts);
  JsonValue payload = JsonValue::object();
  payload.set("verdict", sorting_verdict_name(report.verdict));
  if (report.ranks) payload.set("ranks", wires_to_json(report.ranks->image()));
  if (report.failing_vector)
    payload.set("failing_vector", hex_u64(*report.failing_vector));
  payload.set("vectors_checked", report.vectors_checked);
  return payload;
}

// ------------------------------------------------------------- analyze --

std::string hex_u128(std::pair<std::uint64_t, std::uint64_t> value) {
  char buf[36];
  std::snprintf(buf, sizeof buf, "0x%016llx%016llx",
                static_cast<unsigned long long>(value.first),
                static_cast<unsigned long long>(value.second));
  return buf;
}

// -------------------------------------------------------- count-sorted --

JsonValue count_sorted_payload(const ParsedNetwork& net, const Fingerprint& fp,
                               const JobSpec& spec, Clock::time_point deadline,
                               CompilationArena& arena) {
  // One compile amortized over every trial AND over every job on the
  // same network (the arena view); apply() reuses the buffers.
  const std::shared_ptr<const CompiledNetwork> view =
      plain_compiled(net, fp, arena);
  const CompiledNetwork& compiled = *view;
  std::vector<wire_t> values;
  std::vector<wire_t> scratch;
  std::size_t sorted = 0;
  for (std::size_t index = 0; index < spec.trials; ++index) {
    if ((index & 1023u) == 0) check_deadline(deadline);
    // Per-trial generator derivation identical to
    // BatchEvaluator::count_trials, so engine results match the
    // simulator's for the same (trials, seed) at any concurrency.
    std::uint64_t mix = spec.seed ^ (0xA0761D6478BD642Full * (index + 1));
    Prng rng(splitmix64(mix));
    const Permutation input = random_permutation(compiled.width(), rng);
    values.assign(input.image().begin(), input.image().end());
    compiled.apply(values, scratch);
    if (is_sorted_output(values)) ++sorted;
  }
  JsonValue payload = JsonValue::object();
  payload.set("trials", static_cast<std::uint64_t>(spec.trials));
  payload.set("sorted", static_cast<std::uint64_t>(sorted));
  payload.set("fraction",
              spec.trials == 0
                  ? 0.0
                  : static_cast<double>(sorted) /
                        static_cast<double>(spec.trials));
  return payload;
}

// -------------------------------------------------------------- refute --

/// Rejects an explicit `k` whose Lemma 4.1 set budget on this network
/// exceeds kMaxRefuteSetBudget (k is bounded first, so k^3 cannot wrap).
void check_refute_budget(const ParsedNetwork& net, std::uint32_t k) {
  if (k == 0) return;
  const wire_t n = net.visit([](const auto& model) { return model.width(); });
  const std::uint32_t l = log2_ceil(n);
  if (k <= 1024 && lemma41_set_budget(k, l) <= kMaxRefuteSetBudget) return;
  throw std::invalid_argument(
      "refute: k = " + std::to_string(k) + " at width " + std::to_string(n) +
      " exceeds the set budget k^3 + lg(n) k^2 <= " +
      std::to_string(kMaxRefuteSetBudget));
}

JsonValue refute_payload(const ParsedNetwork& net, const JobSpec& spec,
                         Clock::time_point deadline) {
  check_deadline(deadline);
  check_refute_budget(net, spec.k);
  // Jobs stay single-threaded (no pool: job-level parallelism lives
  // across jobs); the progress hook threads the cooperative deadline into
  // every RDN level and witness replay of the pipeline.
  RefuteOptions options;
  options.k = spec.k;
  options.progress = [deadline] { check_deadline(deadline); };
  const RefutationResult result =
      net.visit([&options](const auto& model) { return refute(model, options); });
  JsonValue payload = JsonValue::object();
  switch (result.status) {
    case RefutationStatus::Refuted: payload.set("status", "refuted"); break;
    case RefutationStatus::TooFewSurvivors:
      payload.set("status", "no-claim");
      break;
    case RefutationStatus::NotInScope:
      payload.set("status", "out-of-scope");
      break;
  }
  payload.set("detail", result.detail);
  if (result.status == RefutationStatus::Refuted) {
    // The colliding outputs: the network maps pi and pi' to outputs that
    // differ exactly where m and m+1 sit, so at least one is unsorted.
    // They come from the refuter's own self-verifying replay, in the
    // model's output order. The certificate is the one copy of the
    // witness pair.
    payload.set("output_pi", wires_to_json(result.output_pi));
    payload.set("output_pi_prime", wires_to_json(result.output_pi_prime));
    payload.set("certificate", certificate_text(*result.certificate));
  }
  return payload;
}

/// Rebuilds the witness from a cached refutation's certificate and
/// replays it through the freshly parsed network, whose fingerprint is
/// `fp`. The certificate parser is fail-closed in either format, and
/// anything else malformed fails closed too.
bool revalidate_refutation(const ParsedNetwork& net, const Fingerprint& fp,
                           const JsonValue& payload, CompilationArena& arena) {
  const JsonValue* status = payload.find("status");
  if (status == nullptr || !status->is_string()) return false;
  if (status->as_string() != "refuted") return true;  // nothing to replay
  const JsonValue* cert_text = payload.find("certificate");
  if (cert_text == nullptr || !cert_text->is_string()) return false;
  try {
    const Witness w = certificate_from_text(cert_text->as_string()).witness;
    // Replay on the compiled kernel - the evaluator actually serving
    // this engine's certify/count paths. Revalidation compiles the raw
    // parse, so it shares the plain-salt arena slot with count-sorted.
    return check_witness(*plain_compiled(net, fp, arena), w).refutes_sorting();
  } catch (const std::exception&) {
    return false;
  }
}

/// Runs the depth-optimality search for the spec's width. The search is
/// deterministic for a fixed width/mode/cap, so the payload is cacheable
/// like any other ok result; the cooperative deadline rides the search's
/// per-node progress hook.
JsonValue search_payload(const JobSpec& spec, Clock::time_point deadline) {
  SearchOptions options;
  if (const auto mode = parse_search_mode(spec.search_mode))
    options.mode = *mode;
  options.max_depth = spec.search_max_depth;
  options.progress = [deadline] { check_deadline(deadline); };
  const SearchResult result =
      find_min_depth_network(static_cast<wire_t>(spec.search_width), options);
  JsonValue out = JsonValue::object();
  out.set("n", static_cast<std::uint64_t>(result.width));
  out.set("status", search_status_name(result.status));
  out.set("mode", search_mode_name(result.mode));
  if (result.status == SearchStatus::Optimal) {
    out.set("optimal_depth", static_cast<std::uint64_t>(result.optimal_depth));
    out.set("lower_bound_source",
            lower_bound_source_name(result.lower_bound_source));
    out.set("network", to_text(result.network));
  }
  JsonValue stats = JsonValue::object();
  stats.set("nodes_expanded", result.stats.nodes_expanded);
  stats.set("children_generated", result.stats.children_generated);
  stats.set("subsumption_hits", result.stats.subsumption_hits);
  stats.set("dedup_hits", result.stats.dedup_hits);
  stats.set("countdown_prunes", result.stats.countdown_prunes);
  stats.set("prefixes", result.stats.prefixes);
  out.set("stats", stats);
  return out;
}

/// What the engine adds to a job's run: the cache to probe and fill and
/// the counters of its cached-refutation replays.
struct CacheTier {
  ResultCache& cache;
  obs::Counter& replays;
  obs::Counter& replay_failures;
};

/// Starts the job's result with the fields every result echoes.
JobResult& begin_result(ProbedJob& job) {
  JobResult& result = job.result.emplace();
  result.seq = job.spec.seq;
  result.id = job.spec.id;
  result.kind = job.spec.kind;
  result.client_tag = job.spec.client_tag;
  return result;
}

/// The cache half of the probe step: lookup under the job's key, with
/// refute revalidation. Answers the job in `job.result` on a hit and adds
/// its time to `job.probe_time`.
void lookup_step(ProbedJob& job, CompilationArena& arena, CacheTier& tier) {
  const CacheKey& key = *job.key;
  const auto probe_start = Clock::now();
  std::optional<JsonValue> hit;
  {
    SB_OBS_SPAN("service", "cache_probe");
    hit = tier.cache.lookup(key);
    // Cached refutations are not trusted: the witness is replayed
    // through the freshly parsed network before it is served.
    if (hit && job.spec.kind == JobKind::Refute) {
      tier.replays.add(1);
      if (!revalidate_refutation(*job.net, key.network, *hit, arena)) {
        tier.replay_failures.add(1);
        tier.cache.invalidate(key);
        hit.reset();
      }
    }
  }
  job.probe_time += Clock::now() - probe_start;
  if (hit) {
    job.hit = true;
    JobResult& result = begin_result(job);
    result.ok = true;
    result.payload = std::move(*hit);
  }
}

/// The probe step: spec check, network parse (for the kinds that have
/// one), cache key, lookup with refute revalidation. Answers the job in
/// `job.result` when it can; otherwise leaves the parsed network and key
/// for execute_step. `tier` is null for the isolated
/// AnalysisEngine::execute and for engines with the cache disabled.
/// Never throws.
void probe_step(ProbedJob& job, CompilationArena& arena, CacheTier* tier) {
  const JobSpec& spec = job.spec;
  job.probed = true;
  if (spec.kind == JobKind::Invalid) {
    begin_result(job).error =
        spec.parse_error.empty() ? "invalid job" : spec.parse_error;
    return;
  }
  // Lint runs on raw text (malformed networks are its whole subject) and
  // search on bare parameters; every other kind needs the parsed network.
  if (spec.kind != JobKind::Lint && spec.kind != JobKind::Search) {
    try {
      job.net = parse_any_network(spec.network_text);
    } catch (const std::exception& e) {
      begin_result(job).error = std::string("network: ") + e.what();
      return;
    }
  }
  if (tier == nullptr) return;

  job.key.emplace(spec.kind == JobKind::Lint ? AnalysisEngine::lint_cache_key(spec)
                  : spec.kind == JobKind::Search
                      ? AnalysisEngine::search_cache_key(spec)
                      : AnalysisEngine::cache_key(spec, *job.net));
  lookup_step(job, arena, *tier);
}

/// The execute step of a job probe_step left unanswered: payload from
/// the parsed network, then the insert under the probed key. Never
/// throws.
void execute_step(ProbedJob& job, Clock::time_point deadline,
                  CompilationArena& arena, ResultCache* cache) {
  const JobSpec& spec = job.spec;
  const std::optional<ParsedNetwork>& net = job.net;
  // The arena keys derive from the network's fingerprint: the probed
  // key's when there is one, else hashed here, once, by the kinds that
  // compile.
  const auto network_fp = [&job] {
    return job.key ? job.key->network : model_fingerprint(*job.net);
  };
  JobResult& result = begin_result(job);
  try {
    SB_OBS_SPAN("service", "execute");
    switch (spec.kind) {
      case JobKind::Info:
        result.payload = info_payload(*net);
        break;
      case JobKind::Certify:
        // Register certification compiles the raw program (no
        // elimination pass), so it shares the plain-salt table with
        // count-sorted; circuit certification compiles the eliminated
        // form and keys under the certify salt.
        if (const auto* reg = std::get_if<RegisterNetwork>(&net->model)) {
          result.payload =
              certify_payload(*reg, deadline, arena,
                              arena_key_of(network_fp(), kArenaSaltPlain));
        } else {
          const ArenaKey key = arena_key_of(network_fp(), kArenaSaltCertify);
          result.payload =
              net->visit_circuit([&](const ComparatorNetwork& circuit) {
                return certify_payload(circuit, deadline, arena, key);
              });
        }
        break;
      case JobKind::Refute:
        result.payload = refute_payload(*net, spec, deadline);
        break;
      case JobKind::CountSorted:
        result.payload =
            count_sorted_payload(*net, network_fp(), spec, deadline, arena);
        break;
      case JobKind::Analyze:
        // Static order-relation analysis of the circuit form: pure
        // structure, no input or seed, so the payload caches like any.
        result.payload = analyze_payload(net->visit_circuit(
            [](const ComparatorNetwork& circuit) { return analyze(circuit); }));
        break;
      case JobKind::Lint: {
        // A dirty report fails the job but still carries its diagnostics.
        const LintReport report = lint_network_text(spec.network_text);
        result.payload = report.to_json(spec.strict);
        if (!report.clean(spec.strict))
          result.error =
              "lint: " + std::to_string(report.count(LintSeverity::Error)) +
              " error(s), " +
              std::to_string(report.count(LintSeverity::Warning)) +
              " warning(s)";
        break;
      }
      case JobKind::Search:
        result.payload = search_payload(spec, deadline);
        break;
      case JobKind::Invalid:
        break;  // answered by the probe step
    }
    result.ok = result.error.empty();
  } catch (const JobTimeout&) {
    result.timed_out = true;
    result.error = "timeout";
    result.payload = JsonValue();
  } catch (const std::exception& e) {
    result.error = e.what();
    result.payload = JsonValue();
  }
  if (result.ok && job.key && cache != nullptr)
    cache->insert(*job.key, result.payload);
}

}  // namespace

JsonValue analyze_payload(const AnalyzeReport& report) {
  JsonValue payload = JsonValue::object();
  payload.set("verdict", analyze_verdict_name(report.verdict));
  payload.set("width", report.width);
  payload.set("levels", static_cast<std::uint64_t>(report.levels));
  payload.set("comparators", static_cast<std::uint64_t>(report.comparators));
  if (report.verdict == AnalyzeVerdict::CertifiedUpToRelabel)
    payload.set("relabel_ranks", wires_to_json(report.relabel_ranks));
  payload.set("redundant",
              static_cast<std::uint64_t>(report.redundant_count()));
  payload.set("always_exchange",
              static_cast<std::uint64_t>(report.always_exchange_count()));
  payload.set("dead_levels",
              static_cast<std::uint64_t>(report.dead_levels.size()));
  payload.set("untouched_slots",
              static_cast<std::uint64_t>(report.untouched_slots.size()));
  payload.set("relation_pairs",
              static_cast<std::uint64_t>(report.relation_pairs));
  payload.set("relation_fingerprint", hex_u128(report.relation_fingerprint));
  payload.set("subsumption_fingerprint",
              hex_u128(report.subsumption_fingerprint));
  return payload;
}

CacheKey AnalysisEngine::cache_key(const JobSpec& spec,
                                   const ParsedNetwork& net) {
  CacheKey key;
  key.network = model_fingerprint(net);
  FingerprintHasher params;
  params.absorb(static_cast<std::uint64_t>(spec.kind));
  if (spec.kind == JobKind::CountSorted) {
    params.absorb(spec.trials);
    params.absorb(spec.seed);
  }
  if (spec.kind == JobKind::Refute) params.absorb(spec.k);
  key.params = params.finish().lo;
  return key;
}

CacheKey AnalysisEngine::search_cache_key(const JobSpec& spec) {
  // No network to fingerprint: the search parameters are the whole input.
  CacheKey key;
  FingerprintHasher id;
  id.absorb(static_cast<std::uint64_t>(spec.kind));
  id.absorb(spec.search_width);
  id.absorb_bytes(spec.search_mode.data(), spec.search_mode.size());
  key.network = id.finish();
  FingerprintHasher params;
  params.absorb(spec.search_max_depth);
  key.params = params.finish().lo;
  return key;
}

CacheKey AnalysisEngine::lint_cache_key(const JobSpec& spec) {
  // Lint has no parsed form to fingerprint (malformed text is its whole
  // subject), so the key hashes the raw bytes instead.
  CacheKey key;
  FingerprintHasher text;
  text.absorb_bytes(spec.network_text.data(), spec.network_text.size());
  key.network = text.finish();
  FingerprintHasher params;
  params.absorb(static_cast<std::uint64_t>(spec.kind));
  params.absorb(spec.strict ? 1 : 0);
  key.params = params.finish().lo;
  return key;
}

JobResult AnalysisEngine::execute(const JobSpec& spec,
                                  Clock::time_point deadline) {
  // The isolated entry point shares the process-wide arena: results are
  // pure functions of the spec either way, the arena only dedups the
  // compile work.
  ProbedJob job{spec};
  probe_step(job, CompilationArena::global(), nullptr);
  if (!job.result)
    execute_step(job, deadline, CompilationArena::global(), nullptr);
  return std::move(*job.result);
}

AnalysisEngine::AnalysisEngine(EngineConfig config, ResultSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      cache_(config_.cache ? config_.cache : std::make_shared<ResultCache>()),
      arena_(config_.arena ? config_.arena.get()
                           : &CompilationArena::global()),
      queue_(config_.queue_capacity),
      pool_(config_.workers) {
  active_workers_ = pool_.worker_count();
  for (std::size_t w = 0; w < pool_.worker_count(); ++w)
    pool_.submit([this] { worker_loop(); });
}

AnalysisEngine::~AnalysisEngine() { finish(); }

bool AnalysisEngine::submit(JobSpec spec) {
  spec.seq = next_seq_++;
  if (obs::enabled()) spec.submit_us = obs::now_us();
  JobCounters& counters = counters_of(spec.kind);
  if (!queue_.push(ProbedJob{std::move(spec)})) return false;
  counters.submitted.add(1);
  return true;
}

AnalysisEngine::Admission AnalysisEngine::try_submit_for(
    ProbedJob job, std::chrono::milliseconds wait) {
  job.spec.seq = next_seq_++;
  if (obs::enabled()) job.spec.submit_us = obs::now_us();
  JobCounters& counters = counters_of(job.spec.kind);
  switch (queue_.try_push_until(std::move(job),
                                std::chrono::steady_clock::now() + wait)) {
    case QueuePush::Ok:
      counters.submitted.add(1);
      return Admission::Accepted;
    case QueuePush::Timeout: return Admission::QueueFull;
    case QueuePush::Closed: return Admission::Closed;
  }
  return Admission::Closed;  // unreachable
}

bool AnalysisEngine::probe(ProbedJob& job) {
  const auto start = Clock::now();
  const obs::Span job_span("service", job_kind_name(job.spec.kind));
  CacheTier tier{*cache_, witness_replays_, witness_replay_failures_};
  probe_step(job, *arena_, config_.cache_enabled ? &tier : nullptr);
  if (!job.result) {
    job.charged = Clock::now() - start;
    return false;
  }
  // Answered without a queue hop: counted as the worker would count it.
  counters_of(job.spec.kind).submitted.add(1);
  account(job, start);
  return true;
}

void AnalysisEngine::finish() {
  queue_.close();
  std::unique_lock lock(join_mutex_);
  workers_done_.wait(lock, [this] { return active_workers_ == 0; });
}

void AnalysisEngine::worker_loop() {
  while (auto job = queue_.pop()) process(std::move(*job));
  std::scoped_lock lock(join_mutex_);
  if (--active_workers_ == 0) workers_done_.notify_all();
}

void AnalysisEngine::process(ProbedJob job) {
  const auto start = Clock::now();
  const JobSpec& spec = job.spec;
  if (spec.submit_us != 0)
    obs::record_complete("service", "queue_wait", spec.submit_us,
                         obs::now_us() - spec.submit_us);
  // One span per job, named by kind; the probe and execute phases nest
  // inside it in the trace.
  const obs::Span job_span("service", job_kind_name(spec.kind));
  const std::uint64_t timeout_ms =
      spec.timeout_ms != 0 ? spec.timeout_ms : config_.default_timeout_ms;
  const Clock::time_point deadline =
      timeout_ms == 0 ? Clock::time_point::max()
                      : start + std::chrono::milliseconds(timeout_ms);

  CacheTier tier{*cache_, witness_replays_, witness_replay_failures_};
  if (!job.probed)
    probe_step(job, *arena_, config_.cache_enabled ? &tier : nullptr);
  const bool owner = !job.result && job.key && claim_key(job, deadline);
  if (!job.result) execute_step(job, deadline, *arena_, cache_.get());
  if (owner) release_key(*job.key);
  account(job, start);
  if (sink_) {
    std::scoped_lock lock(sink_mutex_);
    sink_(*job.result);
  }
}

bool AnalysisEngine::claim_key(ProbedJob& job, Clock::time_point deadline) {
  const CacheKey& key = *job.key;
  const auto released = [this, &key] { return !inflight_keys_.contains(key); };
  std::unique_lock lock(keys_mutex_);
  while (!inflight_keys_.insert(key).second) {
    bool in_time = true;
    {
      SB_OBS_SPAN("service", "key_wait");
      if (deadline == Clock::time_point::max())
        key_released_.wait(lock, released);
      else
        in_time = key_released_.wait_until(lock, deadline, released);
    }
    if (!in_time) {
      JobResult& result = begin_result(job);
      result.timed_out = true;
      result.error = "timeout";
      return false;
    }
    // The owner has released the key: its insert (if it succeeded)
    // answers this job as a hit, else this worker claims the key.
    lock.unlock();
    CacheTier tier{*cache_, witness_replays_, witness_replay_failures_};
    lookup_step(job, *arena_, tier);
    if (job.result) return false;
    lock.lock();
  }
  return true;
}

void AnalysisEngine::release_key(const CacheKey& key) {
  {
    std::scoped_lock lock(keys_mutex_);
    inflight_keys_.erase(key);
  }
  key_released_.notify_all();
}

void AnalysisEngine::account(const ProbedJob& job, Clock::time_point start) {
  const JobResult& result = *job.result;
  JobCounters& counters = counters_of(result.kind);
  if (result.ok) {
    counters.completed.add(1);
  } else {
    counters.failed.add(1);
    if (result.timed_out) counters.timed_out.add(1);
  }
  const auto micros = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  // The probe is kept out of the latency histogram (cache_probe).
  counters.latency.record(
      micros(job.charged + (Clock::now() - start) - job.probe_time));
  if (!job.key) return;
  counters.cache_probe.record(micros(job.probe_time));
  (job.hit ? counters.cache_hits : counters.cache_misses).add(1);
}

JsonValue AnalysisEngine::telemetry_to_json() const {
  JsonValue jobs = JsonValue::object();
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    const JobCounters& k = kinds_[i];
    if (k.submitted.value() == 0) continue;
    JsonValue entry = JsonValue::object();
    entry.set("submitted", k.submitted.value());
    entry.set("completed", k.completed.value());
    entry.set("failed", k.failed.value());
    entry.set("timed_out", k.timed_out.value());
    entry.set("cache_hits", k.cache_hits.value());
    entry.set("cache_misses", k.cache_misses.value());
    entry.set("latency", obs::histogram_to_json(k.latency));
    if (k.cache_probe.count() > 0)
      entry.set("cache_probe", obs::histogram_to_json(k.cache_probe));
    jobs.set(job_kind_name(static_cast<JobKind>(i)), std::move(entry));
  }
  JsonValue out = JsonValue::object();
  out.set("jobs", std::move(jobs));
  out.set("queue_high_water", static_cast<std::uint64_t>(queue_.high_water()));
  out.set("witness_revalidations", witness_replays_.value());
  out.set("witness_revalidation_failures", witness_replay_failures_.value());
  out.set("cache", cache_->stats_to_json());
  out.set("queue_capacity", static_cast<std::uint64_t>(queue_.capacity()));
  out.set("workers", static_cast<std::uint64_t>(pool_.worker_count()));
  // The compile-once tier and the kernel path serving this engine's
  // certify/count/revalidation work - operational facts (which ISA, how
  // much compile reuse), never part of result lines.
  const CompilationArena::Stats arena = arena_->stats();
  JsonValue arena_json = JsonValue::object();
  arena_json.set("hits", arena.hits);
  arena_json.set("misses", arena.misses);
  arena_json.set("networks", arena.networks);
  arena_json.set("bytes", arena.bytes);
  out.set("arena", arena_json);
  const simd::KernelDispatch& kernel = simd::active_kernel();
  JsonValue kernel_json = JsonValue::object();
  kernel_json.set("isa", kernel.name);
  kernel_json.set("lane_bits", static_cast<std::uint64_t>(kernel.lane_bits));
  out.set("kernel", kernel_json);
  // Obs counters/span totals ride along when tracing is on. Never part of
  // result lines, so batch output stays byte-identical either way.
  if (obs::enabled()) out.set("metrics", obs::metrics_to_json());
  return out;
}

}  // namespace shufflebound
