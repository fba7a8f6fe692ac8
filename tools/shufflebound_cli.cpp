// shufflebound command-line tool.
//
// Subcommands (all networks read/written in the text format of core/io.hpp):
//
//   make <family> <n> [args...]       build a network and print it
//       families: bitonic | oem | bitonic-shuffle | butterfly | brick |
//                 pratt | balanced | random-shuffle <depth> <seed> |
//                 random-rdn <seed>
//   show  <file>                      ASCII diagram of a circuit
//   info  <file>                      structural statistics
//   certify <file> [--certify-engine auto|frontier|sweep|analyze]
//                                     0-1 certification: hybrid static
//                                     analyze / frontier / wide-lane sweep
//                                     (docs/simd.md, docs/analyze.md)
//   analyze <file> [--json]           static order-relation analysis:
//                                     verdict, trivial comparators, dead
//                                     levels, fingerprints (docs/analyze.md)
//   refute <file>                     run the paper's adversary; on success
//                                     print a nonsorting-certificate (the
//                                     chunked v2 stream for n >= 512)
//   sweep [--family f] [--lg-min a] [--lg-max b] [--max-depth d] [--seed s]
//         [--witnesses w] [--serial] [--workers n] [--json]
//                                     empirical bound curve: deepest
//                                     refuted iterated-RDN depth vs the
//                                     paper's floor across n = 2^a..2^b
//                                     (docs/adversary.md, EXPERIMENTS §E21)
//   verify <network-file> <cert-file> re-check a certificate (either format)
//   dot   <file>                      Graphviz rendering of a circuit
//   compact <file>                    ASAP re-leveling to critical path
//   search <n> [--mode auto|exhaustive|existence] [--max-depth d]
//          [--serial] [--workers k] [--checkpoint file] [--resume]
//          [--pause-after-nodes c] [--shuffle [max_depth]]
//                                     depth-optimal sorting-network search
//                                     (docs/search.md): exhaustive for
//                                     n <= 8, existence at the published
//                                     optimum for n <= 12; --shuffle runs
//                                     the paper's shuffle-topology
//                                     searchers instead
//   prune <file> <tests> <seed>       prune comparators vs random 0/1 tests
//   route <n> <seed>                  Benes-route a random permutation
//   batch [jobs.jsonl|-] [flags]      concurrent JSONL job stream through
//                                     the analysis engine (docs/service.md)
//   lint  <file...> [--json] [--strict]
//                                     rule-based diagnostics over network
//                                     spec files (docs/lint.md)
//   serve [--port p] [flags]          long-lived TCP analysis server over
//                                     the batch wire format, with a
//                                     persistent disk cache (docs/server.md)
//   connect --port p [file]           stream JSONL jobs to a running server
//
// Every subcommand additionally accepts `--trace <file>` and
// `--metrics <file>` (docs/observability.md): both turn tracing on for
// the whole run; on exit the collected spans are written as a Chrome
// trace-event JSON array and the counters as a flat metrics snapshot.
// A path of "-" writes to stderr so stdout output stays machine-clean.
//
// Files holding register or iterated networks are flattened where a
// circuit is required; 'refute' requires a shuffle-based register network
// (the class the lower bound addresses), an iterated RDN or a circuit
// recognizable as an RDN.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "adversary/certificate.hpp"
#include "adversary/refuter.hpp"
#include "adversary/sweep.hpp"
#include "analysis/representative.hpp"
#include "analyze/analyzer.hpp"
#include "search/search.hpp"
#include "search/shuffle_search.hpp"
#include "analysis/sortedness.hpp"
#include "core/transform.hpp"
#include "core/diagram.hpp"
#include "core/io.hpp"
#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/rdn.hpp"
#include "networks/rdn_io.hpp"
#include "lint/linter.hpp"
#include "networks/shuffle.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "routing/benes.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/engine.hpp"
#include "sim/arena.hpp"
#include "sim/bitparallel.hpp"
#include "sim/isa.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

using namespace shufflebound;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The network in the model its file declares; parsing itself is shared
/// with the batch service.
ParsedNetwork load_network(const std::string& path) {
  try {
    return parse_any_network(read_file(path));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

/// The file's network as a circuit, for the commands that draw or
/// rewrite one.
ComparatorNetwork load_circuit(const std::string& path) {
  return load_network(path).visit_circuit(
      [](const ComparatorNetwork& circuit) { return circuit; });
}

// make: every count is written as network text writes numbers
// (parse_decimal) and <n> is a wire count the text parsers accept
// (1..kMaxTextWidth), so make never prints a network they reject.
int cmd_make(int argc, char** argv) {
  long long width = 0;
  if (argc < 2 || !parse_decimal(argv[1], width) || width < 1 ||
      width > kMaxTextWidth) {
    std::fprintf(stderr, "usage: make <family> <n> [args...] (1 <= n <= %u)\n",
                 kMaxTextWidth);
    return 2;
  }
  const std::string family = argv[0];
  const auto n = static_cast<wire_t>(width);
  if (family == "bitonic") {
    std::fputs(to_text(bitonic_sorting_network(n)).c_str(), stdout);
  } else if (family == "oem") {
    std::fputs(to_text(odd_even_mergesort_network(n)).c_str(), stdout);
  } else if (family == "bitonic-shuffle") {
    std::fputs(to_text(bitonic_on_shuffle(n)).c_str(), stdout);
  } else if (family == "butterfly") {
    std::fputs(to_text(butterfly_rdn(log2_exact(n)).net).c_str(), stdout);
  } else if (family == "brick") {
    std::fputs(to_text(brick_sorter(n)).c_str(), stdout);
  } else if (family == "pratt") {
    std::fputs(to_text(pratt_shellsort_network(n)).c_str(), stdout);
  } else if (family == "balanced") {
    std::fputs(to_text(periodic_balanced_sorter(n)).c_str(), stdout);
  } else if (family == "random-shuffle") {
    long long depth = 0;
    long long seed = 0;
    if (argc < 4 || !parse_decimal(argv[2], depth) ||
        !parse_decimal(argv[3], seed)) {
      std::fprintf(stderr, "usage: make random-shuffle <n> <depth> <seed>\n");
      return 2;
    }
    Prng rng(static_cast<std::uint64_t>(seed));
    std::fputs(to_text(random_shuffle_network(
                           n, static_cast<std::size_t>(depth), rng, {10, 5}))
                   .c_str(),
               stdout);
  } else if (family == "random-rdn") {
    long long seed = 0;
    if (argc < 3 || !parse_decimal(argv[2], seed)) {
      std::fprintf(stderr, "usage: make random-rdn <n> <seed>\n");
      return 2;
    }
    Prng rng(static_cast<std::uint64_t>(seed));
    std::fputs(to_text(random_rdn(log2_exact(n), rng, 10, 5).net).c_str(),
               stdout);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }
  return 0;
}

int cmd_info(const std::string& path) {
  const ParsedNetwork loaded = load_network(path);
  const ComparatorNetwork circuit = loaded.visit_circuit(
      [](const ComparatorNetwork& flat) { return flat; });
  const NetworkStats stats = network_stats(circuit);
  std::printf("width        %u\n", stats.width);
  std::printf("depth        %zu\n", stats.depth);
  std::printf("comparators  %zu\n", stats.comparators);
  std::printf("exchanges    %zu\n", stats.exchanges);
  std::printf("empty levels %zu\n", stats.empty_levels);
  if (const auto* reg = std::get_if<RegisterNetwork>(&loaded.model)) {
    std::printf("model        register (%s)\n",
                reg->is_shuffle_based() ? "shuffle-based"
                                        : "general permutations");
  } else {
    std::printf("model        %s\n", loaded.model_name());
    if (is_pow2(stats.width) && stats.depth == log2_exact(stats.width)) {
      std::printf("RDN          %s\n",
                  recognize_rdn(circuit) ? "yes (recognized)" : "no");
    }
  }
  // Machine facts (which kernel path sweeps would take here, compile
  // reuse so far). Printed by the CLI only - the service's cached info
  // payload stays a pure function of the network.
  const simd::KernelDispatch& kernel = simd::active_kernel();
  std::string available;
  for (const simd::Isa isa : simd::available_isas()) {
    if (!available.empty()) available += ' ';
    available += simd::isa_name(isa);
  }
  std::printf("kernel ISA   %s (%zu-bit lanes; available: %s)\n", kernel.name,
              kernel.lane_bits, available.c_str());
  const CompilationArena::Stats arena = CompilationArena::global().stats();
  std::printf("arena        %llu network(s), %llu bytes, %llu hit(s) / %llu miss(es)\n",
              static_cast<unsigned long long>(arena.networks),
              static_cast<unsigned long long>(arena.bytes),
              static_cast<unsigned long long>(arena.hits),
              static_cast<unsigned long long>(arena.misses));
  return 0;
}

int cmd_certify(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr,
                 "usage: certify <file> [--certify-engine auto|frontier|sweep|analyze]\n");
    return 2;
  }
  CertifyOptions opts;
  std::string path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--certify-engine" && i + 1 < argc) {
      const std::optional<CertifyEngine> engine =
          parse_certify_engine(argv[++i]);
      if (!engine) {
        std::fprintf(stderr,
                     "certify: unknown engine '%s' (auto|frontier|sweep|analyze)\n",
                     argv[i]);
        return 2;
      }
      opts.engine = *engine;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "certify: unexpected argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: certify <file> [--certify-engine auto|frontier|sweep|analyze]\n");
    return 2;
  }
  const ParsedNetwork loaded = load_network(path);
  ThreadPool pool;
  opts.pool = &pool;
  // Register sorters are checked in their own model (they finish in
  // register order), everything else as a circuit (wire order).
  const auto certify = [&](const auto& net) {
    const SortingReport report = certify_sorting(net, opts);
    switch (report.verdict) {
      case SortingVerdict::Sorting:
        // The vector counter saturates at 2^64 - 1; name the count
        // instead.
        if (net.width() >= 64)
          std::printf("SORTING NETWORK (all 2^%u 0/1 vectors sorted)\n",
                      net.width());
        else
          std::printf("SORTING NETWORK (all %llu 0/1 vectors sorted)\n",
                      static_cast<unsigned long long>(report.vectors_checked));
        return 0;
      case SortingVerdict::SortingUpToRelabel:
        std::printf("SORTING NETWORK up to a fixed output rank assignment\n");
        return 0;
      case SortingVerdict::RelabelUndecided:
        // Like a missing static proof: no answer, so no verdict exit code.
        std::printf(
            "NOT a strict sorting network; failing 0/1 vector: 0x%llx\n"
            "sorting up to a fixed output rank assignment: undecided (the "
            "relabel sweep stops at n = %u)\n",
            static_cast<unsigned long long>(*report.failing_vector),
            kSweepWidthCap);
        return 2;
      case SortingVerdict::NotSorting: break;
    }
    std::printf("NOT a sorting network; failing 0/1 vector: 0x%llx\n",
                static_cast<unsigned long long>(*report.failing_vector));
    return 1;
  };
  if (const auto* reg = std::get_if<RegisterNetwork>(&loaded.model))
    return certify(*reg);
  return loaded.visit_circuit(certify);
}

// analyze: static order-relation analysis (docs/analyze.md). The report
// is the deliverable - "inconclusive" is a real outcome of a sound but
// incomplete analysis, not a failure - so the exit code is 0 whenever a
// report was produced and 2 on usage or I/O trouble.
int cmd_analyze(int argc, char** argv) {
  bool json = false;
  std::string path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "analyze: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "analyze: unexpected argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: analyze <file> [--json]\n");
    return 2;
  }
  const AnalyzeReport report = analyze(load_circuit(path));
  const auto hex128 = [](std::pair<std::uint64_t, std::uint64_t> fp) {
    char buf[36];
    std::snprintf(buf, sizeof buf, "0x%016llx%016llx",
                  static_cast<unsigned long long>(fp.first),
                  static_cast<unsigned long long>(fp.second));
    return std::string(buf);
  };
  if (json) {
    // The batch/server "analyze" job payload, plus the per-comparator
    // findings the service keeps as counts.
    JsonValue doc = analyze_payload(report);
    JsonValue ops = JsonValue::array();
    for (const OpFinding& f : report.trivial_ops) {
      JsonValue op = JsonValue::object();
      op.set("level", f.level);
      op.set("op", f.op_in_level);
      op.set("min_slot", f.min_slot);
      op.set("max_slot", f.max_slot);
      op.set("fate", f.fate == OpFate::Redundant ? "redundant"
                                                 : "always-exchange");
      ops.push_back(std::move(op));
    }
    doc.set("trivial_ops", std::move(ops));
    const std::string out = doc.dump();
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::printf("verdict        %s\n", analyze_verdict_name(report.verdict));
  std::printf("width          %u\n", report.width);
  std::printf("levels         %zu\n", report.levels);
  std::printf("comparators    %zu\n", report.comparators);
  std::printf("redundant      %zu\n", report.redundant_count());
  std::printf("always-exch    %zu\n", report.always_exchange_count());
  std::printf("dead levels    %zu\n", report.dead_levels.size());
  std::printf("untouched      %zu\n", report.untouched_slots.size());
  std::printf("relation pairs %zu\n", report.relation_pairs);
  std::printf("relation fp    %s\n", hex128(report.relation_fingerprint).c_str());
  std::printf("subsumption fp %s\n",
              hex128(report.subsumption_fingerprint).c_str());
  for (const OpFinding& f : report.trivial_ops) {
    std::printf("  level %u op %u (slots %u,%u): %s\n", f.level,
                f.op_in_level, f.min_slot, f.max_slot,
                f.fate == OpFate::Redundant ? "redundant"
                                            : "always-exchange");
  }
  return 0;
}

int cmd_refute(int argc, char** argv) {
  const std::string path = argc == 1 ? argv[0] : "";
  if (path.empty() || path[0] == '-') {
    std::fprintf(stderr, "usage: refute <file>\n");
    return 2;
  }
  const RefutationResult result = load_network(path).visit(
      [](const auto& net) { return refute(net); });
  switch (result.status) {
    case RefutationStatus::Refuted:
      // The width picks v1 or v2; verify accepts both.
      std::fputs(certificate_text(*result.certificate).c_str(), stdout);
      std::fprintf(stderr, "# %s\n", result.detail.c_str());
      return 0;
    case RefutationStatus::TooFewSurvivors:
      std::fprintf(stderr,
                   "no claim at this depth (%s); the network may or may "
                   "not sort\n",
                   result.detail.c_str());
      return 1;
    case RefutationStatus::NotInScope:
      std::fprintf(stderr, "refute: out of scope: %s\n",
                   result.detail.c_str());
      return 2;
  }
  return 2;
}

int cmd_sweep(int argc, char** argv) {
  SweepConfig config;
  bool serial = false;
  bool json = false;
  std::size_t workers = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--family" && has_value) {
      config.family = sweep_family_from_name(argv[++i]);
    } else if (arg == "--lg-min" && has_value) {
      config.lg_min = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--lg-max" && has_value) {
      config.lg_max = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--max-depth" && has_value) {
      config.max_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--seed" && has_value) {
      config.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--witnesses" && has_value) {
      config.witnesses = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(
          stderr,
          "usage: sweep [--family butterfly|shuffle|random] [--lg-min a] "
          "[--lg-max b] [--max-depth d] [--seed s] [--witnesses w] "
          "[--serial] [--workers n] [--json]\n");
      return 2;
    }
  }
  std::optional<ThreadPool> pool;          // nullopt = serial reference path
  if (!serial) pool.emplace(workers);      // 0 = hardware concurrency
  config.pool = pool ? &*pool : nullptr;
  const std::vector<SweepPoint> points = run_sweep(config);
  if (json) {
    std::fputs(sweep_to_json(config, points).c_str(), stdout);
  } else {
    std::fputs(sweep_to_table(points).c_str(), stdout);
  }
  // Exit nonzero if any point failed to refute even d = 1 or produced a
  // certificate that did not round-trip - the CI gate rides on this.
  for (const SweepPoint& p : points) {
    if (p.refuted_depth == 0 || !p.certificate_roundtrip_ok) {
      std::fprintf(stderr, "sweep: point n=%u failed\n", p.n);
      return 1;
    }
  }
  return 0;
}

int cmd_show(const std::string& path) {
  const ComparatorNetwork circuit = load_circuit(path);
  if (circuit.width() > 64) {
    std::fprintf(stderr, "show: diagrams limited to n <= 64\n");
    return 2;
  }
  std::fputs(to_diagram(circuit).c_str(), stdout);
  return 0;
}

int cmd_verify(const std::string& net_path, const std::string& cert_path) {
  const ComparatorNetwork circuit = load_circuit(net_path);
  const Certificate cert = certificate_from_text(read_file(cert_path));
  const CertificateVerdict verdict = verify_certificate(circuit, cert);
  if (verdict.accepted()) {
    std::printf("ACCEPTED: the certificate proves the network is not a "
                "sorting network\n");
    return 0;
  }
  std::printf("REJECTED: well_formed=%s never_compared=%s "
              "same_permutation=%s\n",
              verdict.well_formed ? "yes" : "no",
              verdict.witness_check.never_compared ? "yes" : "no",
              verdict.witness_check.same_permutation ? "yes" : "no");
  return 1;
}

int cmd_dot(const std::string& path) {
  std::fputs(to_dot(load_circuit(path)).c_str(), stdout);
  return 0;
}

int cmd_compact(const std::string& path) {
  const ComparatorNetwork circuit = load_circuit(path);
  const ComparatorNetwork compact = compact_levels(circuit);
  std::fprintf(stderr, "# depth %zu -> %zu (critical path)\n",
               circuit.depth(), compact.depth());
  std::fputs(to_text(compact).c_str(), stdout);
  return 0;
}

// search: depth-optimal sorting-network search (docs/search.md). The
// default drives src/search (exhaustive for n <= 8, existence at the
// published optimum for n <= 12); --shuffle keeps the paper's
// shuffle-topology searchers reachable. The witness network goes to
// stdout, everything else to stderr.
int cmd_search_shuffle(wire_t n, std::size_t max_depth) {
  if (n == 2 || n == 4) {
    const auto result = exact_min_depth_shuffle_sorter(n, max_depth);
    if (!result) {
      std::fprintf(stderr, "no shuffle-based sorter within depth %zu\n",
                   max_depth);
      return 1;
    }
    std::fprintf(stderr, "# exact minimum depth: %zu\n", result->depth);
    std::fputs(to_text(result->network).c_str(), stdout);
    return 0;
  }
  if (n == 8) {
    Prng rng(7);
    const auto result = beam_search_shuffle_sorter(8, max_depth, 256, rng);
    if (!result) {
      std::fprintf(stderr, "beam search found no sorter within depth %zu\n",
                   max_depth);
      return 1;
    }
    std::fprintf(stderr, "# beam-searched sorter of depth %zu (upper bound)\n",
                 result->depth);
    std::fputs(to_text(result->network).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "search --shuffle supports n = 2, 4 (exact) or 8 (beam)\n");
  return 2;
}

int cmd_search(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: search <n> [--mode auto|exhaustive|existence] [--max-depth d]\n"
      "              [--serial] [--workers k] [--checkpoint file] [--resume]\n"
      "              [--pause-after-nodes c] [--shuffle [max_depth]]\n";
  std::optional<wire_t> n;
  SearchOptions options;
  bool serial = false;
  std::size_t workers = 0;
  bool shuffle = false;
  std::size_t shuffle_max_depth = 8;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--mode" && has_value) {
      const auto mode = parse_search_mode(argv[++i]);
      if (!mode) {
        std::fprintf(stderr, "search: unknown mode '%s'\n", argv[i]);
        return 2;
      }
      options.mode = *mode;
    } else if (arg == "--max-depth" && has_value) {
      options.max_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--checkpoint" && has_value) {
      options.checkpoint_path = argv[++i];
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--pause-after-nodes" && has_value) {
      options.pause_after_nodes =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--shuffle") {
      shuffle = true;
      if (has_value && argv[i + 1][0] != '-')
        shuffle_max_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!n.has_value() && arg[0] != '-') {
      n = static_cast<wire_t>(std::atoi(arg.c_str()));
    } else {
      std::fprintf(stderr, "search: unknown flag '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
  }
  if (!n.has_value() || *n == 0) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (shuffle) return cmd_search_shuffle(*n, shuffle_max_depth);

  std::optional<ThreadPool> pool;          // nullopt = serial reference path
  if (!serial) pool.emplace(workers);      // 0 = hardware concurrency
  options.pool = pool ? &*pool : nullptr;
  const SearchResult result = find_min_depth_network(*n, options);
  std::fprintf(stderr, "# status: %s (mode %s)\n",
               search_status_name(result.status),
               search_mode_name(result.mode));
  std::fprintf(
      stderr,
      "# nodes %llu  children %llu  subsumed %llu  deduped %llu  "
      "countdown %llu  prefixes %llu  pruning %.3f\n",
      static_cast<unsigned long long>(result.stats.nodes_expanded),
      static_cast<unsigned long long>(result.stats.children_generated),
      static_cast<unsigned long long>(result.stats.subsumption_hits),
      static_cast<unsigned long long>(result.stats.dedup_hits),
      static_cast<unsigned long long>(result.stats.countdown_prunes),
      static_cast<unsigned long long>(result.stats.prefixes),
      result.stats.pruning_ratio());
  if (result.status == SearchStatus::Paused) {
    std::fprintf(stderr, "# paused; resume with --checkpoint %s --resume\n",
                 options.checkpoint_path.c_str());
    return 3;
  }
  if (result.status != SearchStatus::Optimal) {
    std::fprintf(stderr, "# no sorter within depth %zu\n", options.max_depth);
    return 1;
  }
  std::fprintf(stderr, "# optimal depth: %zu (%s)\n", result.optimal_depth,
               lower_bound_source_name(result.lower_bound_source));
  std::fputs(to_text(result.network).c_str(), stdout);
  return 0;
}

int cmd_prune(const std::string& path, std::size_t test_count,
              std::uint64_t seed) {
  const ParsedNetwork loaded = load_network(path);
  const auto* reg = std::get_if<RegisterNetwork>(&loaded.model);
  if (reg == nullptr) {
    std::fprintf(stderr, "prune: expects a register-model network file\n");
    return 2;
  }
  Prng rng(seed);
  const auto tests = random_zero_one_vectors(reg->width(), test_count, rng);
  const PruneResult pruned = prune_for_test_set(*reg, tests);
  std::fprintf(stderr, "# comparators %zu -> %zu against %zu random 0/1 tests\n",
               pruned.comparators_before, pruned.comparators_after,
               tests.size());
  std::fputs(to_text(pruned.network).c_str(), stdout);
  return 0;
}

// batch: stream JSONL jobs through the analysis engine. One result line
// per input line, in input order; malformed lines become per-line error
// results, never batch failures. Exit 0 = every job ok, 1 = some job
// failed (error/timeout/malformed), 2 = usage or I/O trouble.
int cmd_batch(int argc, char** argv) {
  std::string input_path = "-";
  std::string telemetry_path;
  EngineConfig config;
  bool input_set = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "batch: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    // Numeric flag values must be nonnegative decimal; atoi's silent 0 on
    // garbage would otherwise turn a typo into "hardware concurrency".
    const auto next_number = [&](std::uint64_t& out) {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      char* end = nullptr;
      out = std::strtoull(v, &end, 10);
      if (*end != '\0') {
        std::fprintf(stderr, "batch: %s needs a nonnegative integer, got '%s'\n",
                     arg.c_str(), v);
        return false;
      }
      return true;
    };
    std::uint64_t value = 0;
    if (arg == "--workers") {
      if (!next_number(value)) return 2;
      config.workers = static_cast<std::size_t>(value);
    } else if (arg == "--queue") {
      if (!next_number(value)) return 2;
      config.queue_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--timeout-ms") {
      if (!next_number(value)) return 2;
      config.default_timeout_ms = value;
    } else if (arg == "--no-cache") {
      config.cache_enabled = false;
    } else if (arg == "--telemetry") {
      const char* v = next();
      if (v == nullptr) return 2;
      telemetry_path = v;
    } else if (!input_set && (arg == "-" || arg[0] != '-')) {
      input_path = arg;
      input_set = true;
    } else {
      std::fprintf(stderr, "batch: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (input_path != "-") {
    file_in.open(input_path);
    if (!file_in) {
      std::fprintf(stderr, "batch: cannot open %s\n", input_path.c_str());
      return 2;
    }
    in = &file_in;
  }

  bool any_failed = false;
  // Results arrive as jobs finish; batch writes them in input order, so
  // a line waits here until every earlier line has been written.
  std::map<std::uint64_t, std::string> held;  // seq -> result line
  std::uint64_t next_write = 0;
  {
    AnalysisEngine engine(config, [&](const JobResult& result) {
      held.emplace(result.seq, result.to_json_line());
      if (!result.ok) any_failed = true;
      for (auto it = held.begin();
           it != held.end() && it->first == next_write; ++next_write) {
        std::fwrite(it->second.data(), 1, it->second.size(), stdout);
        std::fputc('\n', stdout);
        it = held.erase(it);
      }
    });
    std::string line;
    std::uint64_t line_number = 0;
    while (std::getline(*in, line)) {
      ++line_number;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      engine.submit(job_from_json_line(line, line_number));
    }
    engine.finish();
    std::fflush(stdout);

    if (!telemetry_path.empty()) {
      const std::string doc = engine.telemetry_to_json().dump();
      if (telemetry_path == "-") {
        std::fprintf(stderr, "%s\n", doc.c_str());
      } else {
        std::ofstream out(telemetry_path);
        if (!out) {
          std::fprintf(stderr, "batch: cannot write %s\n",
                       telemetry_path.c_str());
          return 2;
        }
        out << doc << "\n";
      }
    }
  }
  return any_failed ? 1 : 0;
}

// lint: run the rule catalog of src/lint over one or more network files.
// Exit 0 = every file clean (under the chosen strictness), 1 = diagnostics
// made some file fail, 2 = usage or I/O trouble. Unlike the real parsers,
// the linter recovers after each problem, so one run reports everything.
int cmd_lint(int argc, char** argv) {
  bool json = false;
  bool strict = false;
  std::vector<std::string> paths;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: lint <file...> [--json] [--strict]\n");
    return 2;
  }

  bool any_failed = false;
  JsonValue reports = JsonValue::array();
  for (const std::string& path : paths) {
    std::string text;
    try {
      text = read_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lint: %s\n", e.what());
      return 2;
    }
    const LintReport report = lint_network_text(text);
    if (!report.clean(strict)) any_failed = true;
    if (json) {
      JsonValue doc = report.to_json(strict);
      doc.set("file", path);
      reports.push_back(std::move(doc));
    } else {
      for (const Diagnostic& diag : report.diagnostics)
        std::fputs(diag.to_string(path).c_str(), stdout);
      std::printf("%s: %zu error(s), %zu warning(s), %zu info(s)\n",
                  path.c_str(), report.count(LintSeverity::Error),
                  report.count(LintSeverity::Warning),
                  report.count(LintSeverity::Info));
    }
  }
  if (json) {
    const std::string out =
        paths.size() == 1 ? reports.items().front().dump() : reports.dump();
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fputc('\n', stdout);
  }
  return any_failed ? 1 : 0;
}

// serve: the long-lived analysis server (src/server/server.hpp). Blocks
// until SIGTERM/SIGINT or a client's `shutdown` op, then drains and
// returns its clean-drain exit code (0). Exit 2 = usage or bind trouble.
int cmd_serve(int argc, char** argv) {
  ServerConfig config;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const auto next_number = [&](std::uint64_t& out) {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      char* end = nullptr;
      out = std::strtoull(v, &end, 10);
      if (*end != '\0') {
        std::fprintf(stderr, "serve: %s needs a nonnegative integer, got '%s'\n",
                     arg.c_str(), v);
        return false;
      }
      return true;
    };
    std::uint64_t value = 0;
    if (arg == "--port") {
      if (!next_number(value)) return 2;
      config.port = static_cast<std::uint16_t>(value);
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return 2;
      config.host = v;
    } else if (arg == "--workers") {
      if (!next_number(value)) return 2;
      config.workers = static_cast<std::size_t>(value);
    } else if (arg == "--queue") {
      if (!next_number(value)) return 2;
      config.queue_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--timeout-ms") {
      if (!next_number(value)) return 2;
      config.default_timeout_ms = value;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return 2;
      config.cache_dir = v;
    } else if (arg == "--cache-max-bytes") {
      if (!next_number(value)) return 2;
      config.cache_max_bytes = value;
    } else if (arg == "--max-inflight") {
      if (!next_number(value)) return 2;
      config.max_inflight_per_conn = static_cast<std::uint32_t>(value);
    } else if (arg == "--admission-wait-ms") {
      if (!next_number(value)) return 2;
      config.admission_wait_ms = value;
    } else if (arg == "--drain-deadline-ms") {
      if (!next_number(value)) return 2;
      config.drain_deadline_ms = value;
    } else if (arg == "--port-file") {
      const char* v = next();
      if (v == nullptr) return 2;
      config.port_file = v;
    } else {
      std::fprintf(stderr, "serve: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  config.wake_fd = install_sigterm_wake_pipe();
  try {
    Server server(config);
    server.listen();
    std::fprintf(stderr, "# serving on %s:%u\n", config.host.c_str(),
                 server.bound_port());
    return server.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 2;
  }
}

// connect: the minimal client. Streams JSONL request lines from a file
// (or stdin) to a running server and prints the response lines in
// request order. Exit 0 = one response per request, 1 = connection
// trouble or a short response stream, 2 = usage.
int cmd_connect(int argc, char** argv) {
  ClientConfig config;
  std::string input_path = "-";
  bool input_set = false;
  bool port_set = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "connect: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return 2;
      config.port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
      port_set = true;
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return 2;
      config.host = v;
    } else if (!input_set && (arg == "-" || arg[0] != '-')) {
      input_path = arg;
      input_set = true;
    } else {
      std::fprintf(stderr, "connect: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!port_set || config.port == 0) {
    std::fprintf(stderr, "usage: connect --port <port> [--host h] [file]\n");
    return 2;
  }

  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (input_path != "-") {
    file_in.open(input_path);
    if (!file_in) {
      std::fprintf(stderr, "connect: cannot open %s\n", input_path.c_str());
      return 2;
    }
    in = &file_in;
  }
  return run_client(config, *in, std::cout);
}

int cmd_route(wire_t n, std::uint64_t seed) {
  Prng rng(seed);
  const Permutation target = random_permutation(n, rng);
  std::printf("# routing permutation:");
  for (wire_t j = 0; j < n; ++j) std::printf(" %u", target[j]);
  std::printf("\n");
  std::fputs(to_text(benes_route(target)).c_str(), stdout);
  return 0;
}

/// Subcommand dispatch on argv with `--trace`/`--metrics` already
/// stripped. Runs under a top-level "cli" span so every trace shows the
/// full command duration above the phase spans.
int dispatch(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s make|show|info|certify|analyze|refute|sweep|verify|dot|compact|search|prune|route|batch|lint|serve|connect"
                 " ... [--trace file] [--metrics file]\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  const obs::Span cli_span("cli", argv[1]);
  try {
    if (cmd == "make") return cmd_make(argc - 2, argv + 2);
    if (cmd == "show" && argc >= 3) return cmd_show(argv[2]);
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "certify" && argc >= 3) return cmd_certify(argc - 2, argv + 2);
    if (cmd == "analyze" && argc >= 3) return cmd_analyze(argc - 2, argv + 2);
    if (cmd == "refute" && argc >= 3) return cmd_refute(argc - 2, argv + 2);
    if (cmd == "sweep") return cmd_sweep(argc - 2, argv + 2);
    if (cmd == "verify" && argc >= 4) return cmd_verify(argv[2], argv[3]);
    if (cmd == "dot" && argc >= 3) return cmd_dot(argv[2]);
    if (cmd == "compact" && argc >= 3) return cmd_compact(argv[2]);
    if (cmd == "search" && argc >= 3) return cmd_search(argc - 2, argv + 2);
    if (cmd == "prune" && argc >= 5)
      return cmd_prune(argv[2], static_cast<std::size_t>(std::atoi(argv[3])),
                       static_cast<std::uint64_t>(std::atoll(argv[4])));
    if (cmd == "route" && argc >= 4)
      return cmd_route(static_cast<wire_t>(std::atoi(argv[2])),
                       static_cast<std::uint64_t>(std::atoll(argv[3])));
    if (cmd == "batch") return cmd_batch(argc - 2, argv + 2);
    if (cmd == "lint") return cmd_lint(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "connect") return cmd_connect(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "bad arguments for '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Observability flags are global: strip them from argv before the
  // subcommand sees its arguments, so every subcommand accepts them in
  // any position without each parser knowing about tracing.
  std::string trace_path;
  std::string metrics_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0 && (arg == "--trace" || arg == "--metrics")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a file argument\n", argv[i]);
        return 2;
      }
      (arg == "--trace" ? trace_path : metrics_path) = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!trace_path.empty() || !metrics_path.empty()) obs::set_enabled(true);

  int rc = dispatch(static_cast<int>(args.size()), args.data());

  std::string err;
  if (!trace_path.empty() && !obs::write_trace_file(trace_path, &err)) {
    std::fprintf(stderr, "error: --trace: %s\n", err.c_str());
    if (rc == 0) rc = 2;
  }
  if (!metrics_path.empty() && !obs::write_metrics_file(metrics_path, &err)) {
    std::fprintf(stderr, "error: --metrics: %s\n", err.c_str());
    if (rc == 0) rc = 2;
  }
  return rc;
}
