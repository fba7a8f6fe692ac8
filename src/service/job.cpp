#include "service/job.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/io.hpp"
#include "networks/rdn_io.hpp"

namespace shufflebound {

const char* job_kind_name(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::Info: return "info";
    case JobKind::Certify: return "certify";
    case JobKind::Refute: return "refute";
    case JobKind::CountSorted: return "count-sorted";
    case JobKind::Lint: return "lint";
    case JobKind::Analyze: return "analyze";
    case JobKind::Search: return "search";
    case JobKind::Invalid: return "invalid";
  }
  return "invalid";
}

const char* ParsedNetwork::model_name() const noexcept {
  if (std::holds_alternative<IteratedRdn>(model)) return "iterated";
  if (const auto* reg = std::get_if<RegisterNetwork>(&model))
    return reg->is_shuffle_based() ? "register-shuffle" : "register";
  return "circuit";
}

ParsedNetwork parse_any_network(const std::string& text) {
  const NetworkSource src = scan_network_text(text);
  switch (src.model) {
    case SourceModel::Circuit: return {circuit_from_source(src)};
    case SourceModel::Register: return {register_from_source(src)};
    case SourceModel::Iterated: return {iterated_from_source(src)};
    case SourceModel::Unknown: break;
  }
  // No model declared: the scanner always words that as an issue.
  const SourceIssue& issue = *first_issue(src);
  fail_at("network text", issue.line, issue.message);
}

namespace {

std::optional<JobKind> kind_from_name(const std::string& name) {
  if (name == "info") return JobKind::Info;
  if (name == "certify") return JobKind::Certify;
  if (name == "refute") return JobKind::Refute;
  if (name == "count-sorted") return JobKind::CountSorted;
  if (name == "lint") return JobKind::Lint;
  if (name == "analyze") return JobKind::Analyze;
  if (name == "search") return JobKind::Search;
  return std::nullopt;
}

JobSpec invalid_spec(std::string id, std::string why) {
  JobSpec spec;
  spec.kind = JobKind::Invalid;
  spec.id = std::move(id);
  spec.parse_error = std::move(why);
  return spec;
}

}  // namespace

JobLine::JobLine(const std::string& line) {
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception& e) {
    json_error = e.what();
  }
}

std::string JobLine::op() const {
  const JsonValue* op = doc.find("op");
  return op != nullptr && op->is_string() ? op->as_string() : std::string();
}

std::string JobLine::id(std::uint64_t line_number) const {
  if (const JsonValue* id = doc.find("id")) {
    if (id->is_string()) return id->as_string();
    if (id->is_number()) return std::to_string(id->as_int());
  }
  return "line-" + std::to_string(line_number);
}

JobSpec job_from_json_line(const std::string& line,
                           std::uint64_t line_number) {
  return job_from_json(JobLine(line), line_number);
}

JobSpec job_from_json(JobLine&& line, std::uint64_t line_number) {
  JobSpec spec;
  spec.id = line.id(line_number);
  if (!line.json_error.empty()) return invalid_spec(spec.id, line.json_error);
  JsonValue& doc = line.doc;
  if (!doc.is_object())
    return invalid_spec(spec.id, "job line must be a JSON object");
  const JsonValue* id = doc.find("id");
  if (id != nullptr && !id->is_string() && !id->is_number())
    return invalid_spec(spec.id, "'id' must be a string or number");

  const JsonValue* op = doc.find("op");
  if (op == nullptr || !op->is_string())
    return invalid_spec(spec.id, "missing 'op' string");
  const auto kind = kind_from_name(op->as_string());
  if (!kind)
    return invalid_spec(spec.id, "unknown op '" + op->as_string() + "'");
  spec.kind = *kind;

  // Optional unsigned field: the rejection when present but not a number,
  // or a number the field cannot hold (never truncated), else empty.
  const auto read_uint = [&](const char* key, auto& out) -> std::string {
    using Field = std::remove_reference_t<decltype(out)>;
    const JsonValue* v = doc.find(key);
    if (v == nullptr) return {};
    if (!v->is_number()) return std::string("'") + key + "' must be a number";
    const std::uint64_t value = v->as_uint();
    if (value > std::numeric_limits<Field>::max())
      return std::string("'") + key + "' must be at most " +
             std::to_string(std::numeric_limits<Field>::max());
    out = static_cast<Field>(value);
    return {};
  };
  JsonValue* network = doc.find("network");
  const JsonValue* network_file = doc.find("network_file");
  if (spec.kind == JobKind::Search) {
    // Search jobs take a width, not a network.
    if (network != nullptr || network_file != nullptr)
      return invalid_spec(spec.id, "search jobs take 'n', not a network");
    const JsonValue* n = doc.find("n");
    if (n == nullptr || !n->is_number() || n->as_uint() == 0)
      return invalid_spec(spec.id, "search needs a positive 'n'");
    std::string why = read_uint("n", spec.search_width);
    if (!why.empty()) return invalid_spec(spec.id, std::move(why));
    if (const JsonValue* mode = doc.find("mode")) {
      if (!mode->is_string() ||
          (mode->as_string() != "auto" && mode->as_string() != "exhaustive" &&
           mode->as_string() != "existence"))
        return invalid_spec(spec.id,
                            "'mode' must be auto, exhaustive or existence");
      spec.search_mode = mode->as_string();
    }
    why = read_uint("max_depth", spec.search_max_depth);
    if (why.empty()) why = read_uint("timeout_ms", spec.timeout_ms);
    if (!why.empty()) return invalid_spec(spec.id, std::move(why));
    return spec;
  }
  if ((network != nullptr) == (network_file != nullptr))
    return invalid_spec(spec.id,
                        "exactly one of 'network' / 'network_file' required");
  if (network != nullptr) {
    if (!network->is_string())
      return invalid_spec(spec.id, "'network' must be a string");
    spec.network_text = std::move(network->as_string());
  } else {
    if (!network_file->is_string())
      return invalid_spec(spec.id, "'network_file' must be a string");
    std::ifstream in(network_file->as_string());
    if (!in)
      return invalid_spec(spec.id,
                          "cannot open " + network_file->as_string());
    std::ostringstream text;
    text << in.rdbuf();
    spec.network_text = text.str();
  }

  std::string why = read_uint("trials", spec.trials);
  if (why.empty()) why = read_uint("seed", spec.seed);
  if (why.empty()) why = read_uint("k", spec.k);
  if (why.empty()) why = read_uint("timeout_ms", spec.timeout_ms);
  if (!why.empty()) return invalid_spec(spec.id, std::move(why));
  if (const JsonValue* strict = doc.find("strict")) {
    if (!strict->is_bool())
      return invalid_spec(spec.id, "'strict' must be a boolean");
    spec.strict = strict->as_bool();
  }
  return spec;
}

std::string JobResult::to_json_line() const {
  // The envelope is written directly and the payload appended in place:
  // the same bytes a {"id","op","ok",...} object's dump() would give.
  std::string out = "{\"id\":";
  json_append_quoted(out, id);
  out += ",\"op\":\"";
  out += job_kind_name(kind);  // wire names need no escaping
  out += ok ? "\",\"ok\":true" : "\",\"ok\":false";
  if (!ok) {
    out += ",\"error\":";
    json_append_quoted(out, error);
    if (timed_out) out += ",\"timeout\":true";
  }
  // Lint failures still carry the full diagnostic document; other kinds
  // leave the payload null on failure.
  if (ok || !payload.is_null()) {
    out += ",\"result\":";
    payload.dump_to(out);
  }
  out.push_back('}');
  return out;
}

}  // namespace shufflebound
