// Job specs and results for the analysis service - the JSONL wire format
// of the `batch` subcommand and the in-memory contract of the engine.
//
// One job line is a JSON object:
//
//   {"id":"j7","op":"certify","network":"circuit 4\nlevel 0+1 2+3\nend\n"}
//   {"op":"count-sorted","network_file":"net.txt","trials":4096,"seed":9}
//   {"op":"refute","network_file":"shallow.txt","k":0}
//   {"op":"info","network":"register 8\n...","timeout_ms":500}
//   {"op":"lint","network_file":"candidate.txt","strict":true}
//   {"op":"analyze","network_file":"net.txt"}
//   {"op":"search","n":6,"mode":"auto","max_depth":16}
//
// "search" jobs take a width instead of a network: they run the
// depth-optimality search of search/search.hpp and return the witness
// network inline. "network" carries the text format of core/io.hpp (or the iterated-RDN
// format of networks/rdn_io.hpp) inline; "network_file" reads it from
// disk at parse time. "id" is echoed into the result line (defaulting to
// the 1-based input line number). Parsing never throws: a malformed line
// becomes a JobKind::Invalid spec whose execution yields an error result,
// so one bad line cannot take down a batch.
//
// Results are pure functions of the spec (given the op's own seed), and
// their serialized form contains no timing or cache metadata - that is
// what makes batch output byte-identical across worker counts and cache
// states. Telemetry carries the operational signals instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "networks/rdn.hpp"
#include "service/json.hpp"

namespace shufflebound {

enum class JobKind : std::uint8_t {
  Info,
  Certify,
  Refute,
  CountSorted,
  Lint,
  Analyze,
  Search,
  Invalid,
};

/// Number of JobKind values (telemetry array bound).
inline constexpr std::size_t kJobKindCount = 8;

/// Wire name of a job kind ("info", "certify", "refute", "count-sorted",
/// "lint", "analyze", "search").
const char* job_kind_name(JobKind kind) noexcept;

struct JobSpec {
  std::uint64_t seq = 0;      // submission index; assigned by the engine
  std::string id;             // echoed into the result line
  JobKind kind = JobKind::Invalid;
  std::string network_text;   // io.hpp / rdn_io.hpp text
  std::size_t trials = 4096;  // count-sorted
  std::uint64_t seed = 1;     // count-sorted
  std::uint32_t k = 0;        // refute chunk length; 0 = paper's lg n
  bool strict = false;        // lint: promote warnings to failures
  std::uint32_t search_width = 0;        // search: wire count
  std::string search_mode = "auto";      // search: auto|exhaustive|existence
  std::uint32_t search_max_depth = 16;   // search: depth cap
  std::uint64_t timeout_ms = 0;  // 0 = engine default / unlimited
  std::string parse_error;    // Invalid only: why the line was rejected
  /// Observability only: enqueue timestamp (obs::now_us()) stamped by
  /// AnalysisEngine::submit when tracing is enabled, so the worker can
  /// record the queue wait as a span. 0 = untracked. Never serialized.
  std::uint64_t submit_us = 0;
  /// Opaque routing tag echoed into JobResult::client_tag - the server
  /// packs (connection id, per-connection ticket) here so its shared
  /// result sink can route each result back to the right connection in
  /// request order. The engine never interprets it; never serialized.
  std::uint64_t client_tag = 0;
};

/// One wire line after its single JSON parse. Never throws: a line that
/// is not valid JSON leaves `doc` null and the parser's message in
/// `json_error`.
struct JobLine {
  explicit JobLine(const std::string& line);

  JsonValue doc;
  std::string json_error;

  /// The raw "op" string; empty when missing or not a string.
  std::string op() const;
  /// The id the line's response carries: "id" (a string, or a number in
  /// decimal), else "line-<line_number>".
  std::string id(std::uint64_t line_number) const;
};

/// Builds the job spec from a parsed line (never throws; see header
/// comment). `line_number` is 1-based and provides the default id. The
/// inline network text is moved out of the line, not copied.
JobSpec job_from_json(JobLine&& line, std::uint64_t line_number);

/// Parses one JSONL job line: job_from_json(JobLine(line), line_number).
JobSpec job_from_json_line(const std::string& line, std::uint64_t line_number);

/// A network parsed from text: exactly the model the text declared.
struct ParsedNetwork {
  std::variant<ComparatorNetwork, RegisterNetwork, IteratedRdn> model;

  /// "circuit", "register", "register-shuffle" or "iterated".
  const char* model_name() const noexcept;

  /// Calls `f` with the network in its own model.
  template <typename F>
  auto visit(F&& f) const {
    return std::visit(std::forward<F>(f), model);
  }

  /// Calls `f` with the network as a circuit: a circuit as parsed, a
  /// register or iterated network flattened for this call only - the
  /// kinds that read a circuit pay for it, no other kind does.
  template <typename F>
  auto visit_circuit(F&& f) const {
    if (const auto* reg = std::get_if<RegisterNetwork>(&model))
      return f(register_to_circuit(*reg).circuit);
    if (const auto* rdn = std::get_if<IteratedRdn>(&model))
      return f(rdn->flatten().circuit);
    return f(std::get<ComparatorNetwork>(model));
  }
};

/// Parses any of the three text formats: one scan (core/source.hpp),
/// then the builder for the model its header declares ("circuit",
/// "register", "iterated"). Throws std::invalid_argument on malformed
/// text, worded as the strict builders word it.
ParsedNetwork parse_any_network(const std::string& text);

struct JobResult {
  std::uint64_t seq = 0;
  std::string id;
  JobKind kind = JobKind::Invalid;
  bool ok = false;
  bool timed_out = false;
  std::string error;      // when !ok
  JsonValue payload;      // kind-specific object when ok; lint jobs also
                          // carry their diagnostics here on failure
  std::uint64_t client_tag = 0;  // echo of JobSpec::client_tag; never serialized

  /// The JSONL result line (no trailing newline). Deterministic: contains
  /// id, op, ok and payload/error only (failed lint jobs carry both).
  std::string to_json_line() const;
};

}  // namespace shufflebound
