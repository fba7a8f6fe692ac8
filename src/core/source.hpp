// The one front end for network text: a zero-copy scanner over all three
// formats (core/io.hpp, networks/rdn_io.hpp). It records what was written,
// including unparsable tokens and out-of-range indices, and words every
// syntax problem as an issue. The strict builders (*_from_source) throw
// the first issue, then build the model from the record; the linter runs
// its rule pass over it. Numbers are unsigned decimal digits only. The
// declared width is checked against kMaxTextWidth here, once, before
// anything downstream allocates by it.
//
// Comments may carry lint directives: `# lint: expect-depth=<d>` declares
// the depth the author intends, letting the depth-mismatch rule compare
// declaration against reality.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/comparator_network.hpp"

namespace shufflebound {

enum class SourceModel : std::uint8_t { Unknown, Circuit, Register, Iterated };

/// Wire name of a source model ("circuit", "register", "iterated",
/// "unknown").
const char* source_model_name(SourceModel model) noexcept;

/// A number as network text writes it: unsigned decimal digits only, no
/// sign, no partial parse like "1e", no overflow of `value`.
bool parse_decimal(std::string_view token, long long& value);

/// A syntax finding of the scanner, worded as a lint diagnostic. `rule`
/// is a stable lint rule id (docs/lint.md).
struct SourceIssue {
  std::size_t line = 0;
  const char* rule = "";
  std::string message;
  std::string hint;
  bool warning = false;  // only unknown-directive; everything else errs
};

/// One gate token as written, e.g. "5+3". Endpoints are unvalidated;
/// `parsed` is false when the token is not `<digits><op><digits>` (such
/// gates carry only `text`).
struct SourceGate {
  long long a = -1;
  long long b = -1;
  char op = '?';  // '+', '-', or 'x'
  std::string_view text;
  bool parsed = false;
};

struct SourceLevel {
  std::size_t line = 0;
  std::vector<SourceGate> gates;
};

/// One register-model step as written. `shuffle` marks the "step shuffle"
/// shorthand; otherwise `perm` holds the spelled-out entries that parsed
/// (possibly the wrong number of them).
struct SourceStep {
  std::size_t line = 0;
  bool syntax_ok = false;  // the line raised no syntax-step issue
  bool shuffle = false;
  std::vector<long long> perm;
  std::string_view ops;
};

/// One iterated-RDN stage as written.
struct SourceStage {
  std::size_t line = 0;  // the 'stage' line
  bool identity = false;
  std::vector<long long> perm;
  std::size_t tree_line = 0;  // 0 = no tree line
  std::vector<long long> tree;
  std::vector<SourceLevel> levels;
  bool closed = false;  // saw 'endstage'
};

struct NetworkSource {
  SourceModel model = SourceModel::Unknown;
  long long width = 0;        // 0 when the header's width is no number
  bool width_valid = false;   // width in 1..kMaxTextWidth
  std::size_t header_line = 0;
  bool terminated = false;    // saw the final 'end'
  std::size_t last_line = 0;  // last logical (non-empty) line seen
  std::optional<long long> expect_depth;  // '# lint: expect-depth=<d>'
  std::size_t expect_depth_line = 0;
  /// '# lint: expect-redundant=<k>' - the number of comparators the
  /// semantic analysis is expected to prove redundant (circuit model
  /// only; checked by the 'redundant-mismatch' rule).
  std::optional<long long> expect_redundant;
  std::size_t expect_redundant_line = 0;

  std::vector<SourceLevel> levels;  // circuit model
  std::vector<SourceStep> steps;    // register model
  std::vector<SourceStage> stages;  // iterated model

  /// Syntax findings in scan order.
  std::vector<SourceIssue> issues;
};

/// Scans `text` into a NetworkSource whose string views point into
/// `text`. Never throws; every problem becomes an issue and scanning
/// continues on a best-effort basis.
NetworkSource scan_network_text(std::string_view text);

/// Throws std::invalid_argument "<prefix> line N: <what>", or
/// "<prefix>: <what>" when `line` is 0. The strict builders' prefix is
/// "network text" or "iterated network text".
[[noreturn]] void fail_at(const char* prefix, std::size_t line,
                          const std::string& what);

/// Calls `build` and numbers a std::invalid_argument it throws (a model
/// error, in the model's own words) by `line`, the record that caused it.
template <typename F>
auto build_at(const char* prefix, std::size_t line, F&& build) {
  try {
    return build();
  } catch (const std::invalid_argument& e) {
    fail_at(prefix, line, e.what());
  }
}

/// The scanner's first error issue - the smallest line, in scan order -
/// or null when there is none.
const SourceIssue* first_issue(const NetworkSource& src);

/// The strict builders' front check: rejects text that declares another
/// model than `model` with "expected '<model> <width>'" at its header,
/// then throws the first issue. Returns the declared width, which is
/// then in 1..kMaxTextWidth.
wire_t strict_width(const NetworkSource& src, SourceModel model,
                    const char* prefix);

/// The first `width` scanned entries of a permutation or leaf order as
/// wire indices. Entries that do not fit a wire_t saturate, so the model
/// rejects them like any other out-of-range entry.
std::vector<wire_t> wire_image(const std::vector<long long>& entries,
                               wire_t width);

/// Appends one scanned level to `net`, throwing std::invalid_argument in
/// the circuit model's own words (Gate, ComparatorNetwork::add_level).
void append_level(ComparatorNetwork& net, const SourceLevel& level);

}  // namespace shufflebound
