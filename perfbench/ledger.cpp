#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <tuple>

#include "obs/obs.hpp"
#include "server/diskcache.hpp"
#include "sim/arena.hpp"

namespace perfbench {

using namespace shufflebound;

namespace {

/// Every per-layer metric, with its unit, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& catalog() {
  static const std::vector<std::pair<const char*, const char*>> kCatalog = {
      {"service.job_parse_us", "us"},
      {"service.fingerprint_us", "us"},
      {"service.cache_probe_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.revalidate_us", "us"},
      {"service.queue_wait_us", "us"},
      {"service.result_dump_us", "us"},
      {"service.result_bytes", "bytes"},
      {"server.round_trip_us", "us"},
      {"server.wire_overhead_us", "us"},
      {"server.disk_append_us", "us"},
      {"server.disk_open_s", "s"},
      {"core.parse_us", "us"},
      {"analyze.analyze_us", "us"},
      {"analyze.eliminate_us", "us"},
      {"analyze.certified_ratio", "ratio"},
      {"sim.compile_us", "us"},
      {"sim.arena_hit_ratio", "ratio"},
      {"sim.frontier_us", "us"},
      {"sim.frontier_peak_states", "count"},
      {"sim.frontier_fallback_ratio", "ratio"},
      {"sim.sweep_us", "us"},
      {"sim.sweep_mvps", "Mvec/s"},
      {"sim.vectors_checked", "count"},
      {"sim.relabel_us", "us"},
      {"adversary.refute_us", "us"},
      {"adversary.phase_us.adversary", "us"},
      {"adversary.phase_us.lemma41_refine", "us"},
      {"adversary.phase_us.pattern_refine", "us"},
      {"adversary.phase_us.witness_build", "us"},
      {"adversary.witness_replay_us", "us"},
      {"adversary.certificate_us", "us"},
      {"adversary.certificate_bytes", "bytes"},
      {"adversary.refuted_ratio", "ratio"},
      {"search.nodes_per_s", "nodes/s"},
      {"search.prune_ratio", "ratio"},
      {"search.subsumption_hits", "count"},
      {"search.dedup_hits", "count"},
      {"search.pool_idle_share", "ratio"},
      {"lint.lint_us", "us"},
      {"trace.unaccounted_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kCatalog;
}

/// Accumulated layer time and call counts of the replay, plus the ratios
/// and gauges the traced pass yields.
class Ledger {
 public:
  /// Times one call into a layer.
  template <typename F>
  auto time(const char* layer, F&& call) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      add(layer, t0);
    } else {
      auto result = call();
      add(layer, t0);
      return result;
    }
  }

  double total_us() const {
    double sum = 0;
    for (const auto& [name, layer] : layers_) sum += layer.us;
    return sum;
  }

  double sum_us(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? 0 : it->second.us;
  }

  /// Mean microseconds per call of a layer; 0 when never called.
  double mean_us(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() || it->second.calls == 0
               ? 0
               : it->second.us / static_cast<double>(it->second.calls);
  }

  void set(const std::string& name, double value) { values_[name] = value; }

  /// The final metric list: replayed layer means, then the set values.
  void emit(Outcome& out) const {
    for (const auto& [name, unit] : catalog()) {
      double value = mean_us(name);
      if (const auto it = values_.find(name); it != values_.end()) value = it->second;
      out.metrics.push_back({name, value, unit});
    }
  }

 private:
  struct Layer {
    double us = 0;
    std::uint64_t calls = 0;
  };

  void add(const char* layer, Clock::time_point t0) {
    Layer& l = layers_[layer];
    l.us += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    ++l.calls;
  }

  std::map<std::string, Layer> layers_;
  std::map<std::string, double> values_;
};

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

std::uint64_t counter(const std::map<std::string, std::uint64_t>& counters,
                      const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Total microseconds and count of a set of spans.
struct SpanSum {
  double us = 0;
  std::uint64_t count = 0;
  void add(double v) {
    us += v;
    ++count;
  }
  double mean() const { return ratio(us, static_cast<double>(count)); }
};

/// Counters and span totals of a traced pass. Spans are nested per thread
/// by their time intervals, so a span's parent and its self time (its
/// duration minus its direct children's) are known.
struct TraceSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, SpanSum> spans;       // by "cat/name"
  std::map<std::string, SpanSum> self_in;     // self time, by "parent>child"
  std::map<std::string, SpanSum> within;      // duration, by "parent>child"
  SpanSum plain_probes;         // cache probes that only looked up
  SpanSum revalidating_probes;  // cache probes that replayed a cached refutation

  double span_mean_us(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.mean();
  }
  double span_total_us(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.us;
  }
  static double mean_of(const std::map<std::string, SpanSum>& sums, const std::string& key) {
    const auto it = sums.find(key);
    return it == sums.end() ? 0 : it->second.mean();
  }
};

TraceSnapshot snapshot_registry() {
  TraceSnapshot snap;
  for (const auto& [name, value] : obs::registry().snapshot_counters())
    snap.counters[name] = value;

  struct Node {
    std::string name;
    std::uint64_t end = 0;
    double dur = 0;
    double child_us = 0;
    std::size_t parent = SIZE_MAX;
    bool revalidates = false;
  };
  std::vector<obs::SpanRecord> records = obs::registry().snapshot_spans();
  std::sort(records.begin(), records.end(), [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
    return std::tie(a.tid, a.start_us, b.dur_us) < std::tie(b.tid, b.start_us, a.dur_us);
  });
  std::vector<Node> nodes;
  nodes.reserve(records.size());
  std::vector<std::size_t> open;  // the chain of spans enclosing the next one
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::SpanRecord& r = records[i];
    if (i > 0 && records[i - 1].tid != r.tid) open.clear();
    const std::uint64_t end = r.start_us + r.dur_us;
    while (!open.empty() && nodes[open.back()].end < end) open.pop_back();
    Node node;
    node.name = std::string(r.cat) + "/" + r.name;
    node.end = end;
    node.dur = static_cast<double>(r.dur_us);
    node.parent = open.empty() ? SIZE_MAX : open.back();
    open.push_back(nodes.size());
    nodes.push_back(std::move(node));
  }
  for (const Node& node : nodes) {
    if (node.parent == SIZE_MAX) continue;
    Node& parent = nodes[node.parent];
    parent.child_us += node.dur;
    if (node.name == "refuter/witness_check") parent.revalidates = true;
  }
  for (const Node& node : nodes) {
    snap.spans[node.name].add(node.dur);
    if (node.name == "service/cache_probe")
      (node.revalidates ? snap.revalidating_probes : snap.plain_probes).add(node.dur);
    if (node.parent == SIZE_MAX) continue;
    const std::string key = nodes[node.parent].name + ">" + node.name;
    snap.self_in[key].add(node.dur - node.child_us);
    snap.within[key].add(node.dur);
  }
  return snap;
}

/// Runs `pass` with the obs registry on, then snapshots it.
template <typename Pass>
TraceSnapshot traced(Pass&& pass) {
  obs::reset();
  obs::set_enabled(true);
  pass();
  obs::set_enabled(false);
  TraceSnapshot snap = snapshot_registry();
  obs::reset();
  return snap;
}

/// The layer split of the program's own path, from the spans and counters
/// the library already records (no span is added for the benchmark).
void set_trace_layers(Ledger& ledger, const TraceSnapshot& snap) {
  const auto& c = snap.counters;
  const auto share = [&](const char* part, const char* other) {
    return ratio(static_cast<double>(counter(c, part)),
                 static_cast<double>(counter(c, part) + counter(c, other)));
  };
  ledger.set("service.cache_hit_ratio", share("service.cache_hits", "service.cache_misses"));
  ledger.set("service.cache_probe_us", snap.plain_probes.mean());
  ledger.set("service.revalidate_us", snap.revalidating_probes.mean());
  ledger.set("service.queue_wait_us", snap.span_mean_us("service/queue_wait"));
  ledger.set("sim.arena_hit_ratio", share("arena.hits", "arena.misses"));
  ledger.set("sim.compile_us", snap.span_mean_us("kernel/compile"));
  ledger.set("analyze.analyze_us", snap.span_mean_us("kernel/analyze_certify"));
  // A certify job's execute phase outside every kernel span: redundancy
  // elimination (which runs inside the arena's compile closure without a
  // span of its own), the arena lookup and the payload.
  ledger.set("analyze.eliminate_us",
             TraceSnapshot::mean_of(snap.self_in, "service/certify>service/execute"));
  ledger.set("analyze.certified_ratio",
             share("kernel.analyze_certified", "kernel.analyze_inconclusive"));
  ledger.set("sim.frontier_us", snap.span_mean_us("kernel/frontier_check"));
  ledger.set("sim.frontier_fallback_ratio",
             ratio(static_cast<double>(counter(c, "kernel.frontier_fallbacks")),
                   static_cast<double>(counter(c, "kernel.frontier_runs"))));
  ledger.set("sim.sweep_us", snap.span_mean_us("kernel/zero_one_check"));
  ledger.set("sim.relabel_us", snap.span_mean_us("kernel/relabel_check"));
  const double vectors = static_cast<double>(counter(c, "kernel.vectors_evaluated"));
  ledger.set("sim.sweep_mvps", ratio(vectors, snap.span_total_us("kernel/zero_one_check")));
  ledger.set("adversary.refute_us",
             TraceSnapshot::mean_of(snap.within, "service/execute>refuter/refute"));
  // A refute job's execute phase outside the refuter: the certificate
  // text and the payload around it.
  ledger.set("adversary.certificate_us",
             TraceSnapshot::mean_of(snap.self_in, "service/refute>service/execute"));
  const double refutes = static_cast<double>(counter(c, "refuter.adversary_runs"));
  for (const char* phase : {"adversary", "lemma41_refine", "pattern_refine", "witness_build"})
    ledger.set(std::string("adversary.phase_us.") + phase,
               ratio(static_cast<double>(counter(c, std::string("refuter.phase_us.") + phase)),
                     refutes));
  ledger.set("adversary.witness_replay_us",
             ratio(static_cast<double>(counter(c, "refuter.phase_us.witness_replay")), refutes));
}

/// Probe time per job of the traced pass (plain and revalidating).
double probe_us_per_job(const TraceSnapshot& snap, double jobs) {
  return ratio(snap.plain_probes.us + snap.revalidating_probes.us, jobs);
}

// ------------------------------------------------------- layer replay --

/// Replay state shared across one workload's requests.
struct Replay {
  Ledger ledger;
  ResultCache* cache = nullptr;
  /// serve-mix: results are stored in the disk tier and serialized here
  /// (the engine workloads time both in their traced pass's sink).
  bool disk_tier = false;
  std::uint64_t jobs = 0;
  SpanSum frontier_peak;  // the program's kernel.frontier_peak_states gauge per attempt
  std::uint64_t refute_calls = 0, refuted = 0;
  double certificate_bytes = 0, result_bytes = 0;
};

/// Runs a job the way a worker does on a miss - one AnalysisEngine::execute
/// call, which parses the network again and compiles through the
/// process-wide arena - and reads the frontier gauge the library sets for
/// each attempt.
JobResult replay_execute(Replay& rp, const JobSpec& spec) {
  obs::reset();
  obs::set_enabled(true);
  JobResult result = rp.ledger.time(spec.kind == JobKind::Lint ? "lint.lint_us" : "service.execute_us",
                                    [&] { return AnalysisEngine::execute(spec); });
  obs::set_enabled(false);
  const auto counters = obs::registry().snapshot_counters();
  const auto value = [&](const char* name) {
    const auto it = std::find_if(counters.begin(), counters.end(),
                                 [&](const auto& entry) { return entry.first == name; });
    return it == counters.end() ? 0 : it->second;
  };
  if (value("kernel.frontier_runs") == 1)
    rp.frontier_peak.add(static_cast<double>(value("kernel.frontier_peak_states")));
  obs::reset();
  return result;
}

/// One request, layer by layer, in the engine's pipeline order.
void replay_request(Replay& rp, const std::string& line) {
  Ledger& L = rp.ledger;
  ++rp.jobs;
  const JobSpec spec = L.time("service.job_parse_us", [&] { return job_from_json_line(line, 1); });
  CacheKey key;
  if (spec.kind == JobKind::Lint) {
    key = L.time("service.fingerprint_us", [&] { return AnalysisEngine::lint_cache_key(spec); });
  } else {
    const ParsedNetwork net =
        L.time("core.parse_us", [&] { return parse_any_network(spec.network_text); });
    key = L.time("service.fingerprint_us", [&] { return AnalysisEngine::cache_key(spec, net); });
  }
  // The probe (and a hit's revalidation) is timed in the traced pass.
  std::optional<JsonValue> payload = rp.cache->lookup(key);
  if (!payload) {
    JobResult result = replay_execute(rp, spec);
    if (spec.kind == JobKind::Refute && result.ok) {
      ++rp.refute_calls;
      if (const JsonValue* status = result.payload.find("status");
          status != nullptr && status->is_string() && status->as_string() == "refuted") {
        ++rp.refuted;
        if (const JsonValue* cert = result.payload.find("certificate"); cert != nullptr && cert->is_string())
          rp.certificate_bytes += static_cast<double>(cert->as_string().size());
      }
    }
    payload = std::move(result.payload);
    if (rp.disk_tier) L.time("server.disk_append_us", [&] { rp.cache->insert(key, *payload); });
  }
  if (rp.disk_tier) {
    JobResult result;
    result.id = spec.id;
    result.kind = spec.kind;
    result.ok = true;
    result.payload = std::move(*payload);
    rp.result_bytes += static_cast<double>(
        L.time("service.result_dump_us", [&] { return result.to_json_line(); }).size());
  }
}

/// Replayed layer time per job. execute() parses the network itself, so
/// the separately timed parse is not counted twice.
double replay_us_per_job(const Replay& rp) {
  return ratio(rp.ledger.total_us() - rp.ledger.sum_us("core.parse_us"),
               static_cast<double>(rp.jobs));
}

void set_replay_ratios(Replay& rp) {
  Ledger& L = rp.ledger;
  L.set("sim.frontier_peak_states", rp.frontier_peak.mean());
  L.set("adversary.refuted_ratio",
        ratio(static_cast<double>(rp.refuted), static_cast<double>(rp.refute_calls)));
  L.set("adversary.certificate_bytes",
        ratio(rp.certificate_bytes, static_cast<double>(rp.refuted)));
}

double ops_per_s(const EndToEnd& e2e) {
  return ratio(static_cast<double>(e2e.completed), e2e.wall_s);
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

void identity_counts(Outcome& out, const EndToEnd& untraced, const EndToEnd& traced,
                     std::uint64_t replayed) {
  JsonValue t = JsonValue::object();
  t.set("untraced_ops", untraced.completed);
  t.set("traced_ops", traced.completed);
  t.set("replayed_requests", replayed);
  out.identity.set("trace", std::move(t));
}

}  // namespace

void trace_engine_workload(const Args& args,
                           const std::function<std::unique_ptr<Stream>(double)>& make_stream,
                           Outcome& out) {
  const double part = args.seconds / 3;
  auto untraced_stream = make_stream(part);
  const EngineRun untraced = run_engine_loop(*untraced_stream, part, 0);
  check_engine_run(untraced, out);

  EngineRun traced_run;
  auto traced_stream = make_stream(part);
  const TraceSnapshot snap =
      traced([&] { traced_run = run_engine_loop(*traced_stream, part, 0); });
  check_engine_run(traced_run, out);

  Replay rp;
  ResultCache cache;
  rp.cache = &cache;
  CompilationArena::global().clear();
  auto stream = make_stream(part);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(part));
  while (Clock::now() < deadline) {
    const std::optional<Request> req = stream->next();
    if (!req) break;
    replay_request(rp, req->line);
  }

  Ledger& L = rp.ledger;
  set_trace_layers(L, snap);
  set_replay_ratios(rp);
  const double completed = static_cast<double>(traced_run.e2e.completed);
  L.set("service.result_dump_us", ratio(traced_run.dump_us, completed));
  L.set("service.result_bytes", ratio(static_cast<double>(traced_run.result_bytes), completed));
  L.set("sim.vectors_checked",
        ratio(static_cast<double>(counter(snap.counters, "kernel.vectors_evaluated")), completed));
  // End to end per job (submit to result line) against the layers that
  // explain it: the replayed layer time per job, the traced probe and
  // queue wait, the dump.
  const double e2e_us = mean(traced_run.e2e.latency_ms) * 1e3;
  const double layers_us = replay_us_per_job(rp) +
                           probe_us_per_job(snap, completed) +
                           snap.span_mean_us("service/queue_wait") +
                           ratio(traced_run.dump_us, completed);
  L.set("trace.unaccounted_share", 1 - ratio(layers_us, e2e_us));
  L.set("trace.overhead_share", 1 - ratio(ops_per_s(traced_run.e2e), ops_per_s(untraced.e2e)));
  L.emit(out);
  identity_counts(out, untraced.e2e, traced_run.e2e, rp.jobs);
}

void trace_serve_mix(const Args& args, const std::string& scratch_dir, Outcome& out) {
  const double part = args.seconds / 3;
  const auto absorb = [&](const ServeRun& run) {
    out.attempted += run.attempted;
    for (std::uint64_t i = 0; i < run.failed; ++i)
      note_problem(out, i < run.problems.size() ? run.problems[i] : "serve-mix answer");
  };
  const ServeRun untraced = run_serve_loop(args.seed, part, scratch_dir + "/untraced");
  absorb(untraced);
  ServeRun traced_run;
  const TraceSnapshot snap =
      traced([&] { traced_run = run_serve_loop(args.seed, part, scratch_dir + "/traced"); });
  absorb(traced_run);

  Replay rp;
  rp.disk_tier = true;
  CompilationArena::global().clear();
  DiskCacheConfig disk;
  disk.directory = scratch_dir + "/replay-cache";
  const Clock::time_point open_start = Clock::now();
  DiskBackedCache cache(disk);
  rp.ledger.set("server.disk_open_s", seconds_between(open_start, Clock::now()));
  rp.cache = &cache;
  ServeMixStream stream(args.seed, serve_requests(part));
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(part));
  while (Clock::now() < deadline) {
    const std::optional<std::size_t> key = stream.next();
    if (!key) break;
    replay_request(rp, stream.keys()[*key].line);
  }

  Ledger& L = rp.ledger;
  set_trace_layers(L, snap);
  set_replay_ratios(rp);
  L.set("service.result_bytes", ratio(rp.result_bytes, static_cast<double>(rp.jobs)));
  std::uint64_t certify_jobs = 0;
  if (const JsonValue* jobs = traced_run.telemetry.find("jobs"))
    if (const JsonValue* certify = jobs->find("certify"))
      certify_jobs = certify->find("cache_misses")->as_uint();
  L.set("sim.vectors_checked",
        ratio(static_cast<double>(counter(snap.counters, "kernel.vectors_evaluated")),
              static_cast<double>(certify_jobs)));
  // Engine-side time per request from the `stats` document: execute
  // latency plus cache probe, summed over every job kind.
  double engine_us = 0;
  double engine_jobs = 0;
  if (const JsonValue* jobs = traced_run.telemetry.find("jobs")) {
    for (const auto& [kind, entry] : jobs->members()) {
      const JsonValue* lat = entry.find("latency");
      engine_us += static_cast<double>(lat->find("sum_us")->as_uint());
      engine_jobs += static_cast<double>(lat->find("count")->as_uint());
      if (const JsonValue* probe = entry.find("cache_probe"))
        engine_us += static_cast<double>(probe->find("sum_us")->as_uint());
    }
  }
  const double round_trip_us = mean(traced_run.e2e.latency_ms) * 1e3;
  const double wire_us = round_trip_us - ratio(engine_us, engine_jobs);
  L.set("server.round_trip_us", round_trip_us);
  L.set("server.wire_overhead_us", wire_us);
  const double layers_us = replay_us_per_job(rp) +
                           probe_us_per_job(snap, static_cast<double>(traced_run.e2e.completed)) +
                           snap.span_mean_us("service/queue_wait") + wire_us;
  L.set("trace.unaccounted_share", 1 - ratio(layers_us, round_trip_us));
  L.set("trace.overhead_share", 1 - ratio(ops_per_s(traced_run.e2e), ops_per_s(untraced.e2e)));
  L.emit(out);
  identity_counts(out, untraced.e2e, traced_run.e2e, rp.jobs);
}

void trace_search_optimal(const Args& args, Outcome& out) {
  const double part = args.seconds / 2;
  const SearchRun untraced = run_search_loop(args.seed, part);
  check_search_run(untraced, out);
  SearchRun traced_run;
  const TraceSnapshot snap = traced([&] { traced_run = run_search_loop(args.seed, part); });
  check_search_run(traced_run, out);

  Ledger L;
  set_trace_layers(L, snap);
  double nodes = 0, subsumption = 0, dedup = 0, prune = 0;
  for (const SearchRecord& r : traced_run.records) {
    nodes += static_cast<double>(r.result.stats.nodes_expanded);
    subsumption += static_cast<double>(r.result.stats.subsumption_hits);
    dedup += static_cast<double>(r.result.stats.dedup_hits);
    prune += r.result.stats.pruning_ratio();
  }
  const double searches = static_cast<double>(traced_run.records.size());
  const double wall_us = traced_run.e2e.wall_s * 1e6;
  L.set("search.nodes_per_s", ratio(nodes, traced_run.e2e.wall_s));
  L.set("search.prune_ratio", ratio(prune, searches));
  L.set("search.subsumption_hits", ratio(subsumption, searches));
  L.set("search.dedup_hits", ratio(dedup, searches));
  L.set("search.pool_idle_share",
        ratio(static_cast<double>(counter(snap.counters, "pool.idle_us")),
              static_cast<double>(kWorkers) * wall_us));
  // The search's parallel expansion runs in pool tasks and its witness
  // certification in kernel spans on the calling thread; everything else
  // there (dedup, subsumption) has no span, so it is what this share
  // exposes.
  double kernel_us = 0;
  const std::string on_caller = "search/find_min_depth>kernel/";
  for (const auto& [key, sum] : snap.within)
    if (key.rfind(on_caller, 0) == 0) kernel_us += sum.us;
  const double layers_us = snap.span_total_us("pool/task") / static_cast<double>(kWorkers) + kernel_us;
  L.set("trace.unaccounted_share", 1 - ratio(layers_us, wall_us));
  L.set("trace.overhead_share", 1 - ratio(ops_per_s(traced_run.e2e), ops_per_s(untraced.e2e)));
  L.emit(out);
  identity_counts(out, untraced.e2e, traced_run.e2e, 0);
}

}  // namespace perfbench
