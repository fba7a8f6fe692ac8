#include "lint/linter.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "core/comparator_network.hpp"
#include "core/source.hpp"
#include "networks/rdn.hpp"
#include "perm/permutation.hpp"
#include "util/bits.hpp"

namespace shufflebound {
namespace {

void emit(LintReport& report, LintSeverity severity, const char* rule,
          std::size_t line, std::size_t unit, std::string message,
          std::string hint = {}) {
  Diagnostic d;
  d.severity = severity;
  d.rule = rule;
  d.line = line;
  d.unit = unit;
  d.message = std::move(message);
  d.hint = std::move(hint);
  report.diagnostics.push_back(std::move(d));
}

char flipped_op(char op) { return op == '+' ? '-' : op == '-' ? '+' : op; }

/// Validates that `image` spells a permutation of 0..width-1; on failure
/// returns a human explanation.
std::optional<std::string> permutation_problem(
    const std::vector<long long>& image, long long width) {
  if (static_cast<long long>(image.size()) != width)
    return "has " + std::to_string(image.size()) + " entries, expected " +
           std::to_string(width);
  std::vector<bool> seen(static_cast<std::size_t>(width), false);
  for (const long long v : image) {
    if (v < 0 || v >= width)
      return "entry " + std::to_string(v) + " is outside 0.." +
             std::to_string(width - 1);
    if (seen[static_cast<std::size_t>(v)])
      return "entry " + std::to_string(v) + " appears twice";
    seen[static_cast<std::size_t>(v)] = true;
  }
  return std::nullopt;
}

/// Per-wire generation counters across the levels of one circuit (or one
/// iterated-RDN chunk), driving the duplicate / redundant-comparator and
/// unused-wire rules.
struct LevelScanState {
  explicit LevelScanState(long long width)
      : wire_gen(static_cast<std::size_t>(width), 0),
        touched(static_cast<std::size_t>(width), false) {}

  struct PairSeen {
    std::size_t gen_lo = 0;
    std::size_t gen_hi = 0;
    std::size_t line = 0;
  };

  std::vector<std::size_t> wire_gen;
  std::vector<bool> touched;
  std::map<std::pair<long long, long long>, PairSeen> last_pair;
};

/// All structural and hygiene rules of one level. `unit` is the 1-based
/// stage index for iterated chunks, 0 for plain circuits.
void check_level(LintReport& report, long long width,
                 const SourceLevel& level, std::size_t unit,
                 LevelScanState& state) {
  if (level.gates.empty())
    emit(report, LintSeverity::Info, "empty-level", level.line, unit,
         "level has no gates");

  std::map<long long, const SourceGate*> occupied;
  std::vector<const SourceGate*> valid;
  for (const SourceGate& gate : level.gates) {
    if (!gate.parsed) continue;  // syntax-gate already reported
    bool in_model = true;
    if (gate.a == gate.b) {
      emit(report, LintSeverity::Error, "gate-self-loop", level.line, unit,
           "gate '" + std::string(gate.text) + "' connects wire " +
               std::to_string(gate.a) + " to itself",
           "a comparator element takes two distinct wires");
      in_model = false;
    }
    for (const long long endpoint : {gate.a, gate.b}) {
      if (endpoint < 0 || endpoint >= width) {
        emit(report, LintSeverity::Error, "wire-out-of-range", level.line,
             unit,
             "gate '" + std::string(gate.text) + "' endpoint " +
                 std::to_string(endpoint) + " is outside wires 0.." +
                 std::to_string(width - 1));
        in_model = false;
      }
    }
    if (!in_model) continue;
    if (gate.a > gate.b && gate.op != 'x') {
      const std::string canonical = std::to_string(gate.b) +
                                    flipped_op(gate.op) +
                                    std::to_string(gate.a);
      emit(report, LintSeverity::Warning, "inverted-orientation", level.line,
           unit,
           "gate '" + std::string(gate.text) +
               "' lists its higher wire first; the '" +
               std::string(1, gate.op) +
               "' orientation silently flips when endpoints are normalized",
           "spell it '" + canonical + "' to make the orientation explicit");
    }
    for (const long long endpoint : {gate.a, gate.b}) {
      const auto [it, inserted] = occupied.try_emplace(endpoint, &gate);
      if (!inserted)
        emit(report, LintSeverity::Error, "level-wire-conflict", level.line,
             unit,
             "wire " + std::to_string(endpoint) + " is used by both '" +
                 std::string(it->second->text) + "' and '" +
                 std::string(gate.text) + "' in the same level",
             "gates within a level must act on pairwise-disjoint wires; "
             "move one gate to another level");
    }
    valid.push_back(&gate);
  }

  // Redundancy is judged against the generation counters *before* this
  // level touches anything: a pair gate is redundant iff neither wire has
  // seen any gate since the previous gate on exactly that pair.
  for (const SourceGate* gate : valid) {
    const auto key = std::minmax(gate->a, gate->b);
    const auto it = state.last_pair.find(key);
    if (it != state.last_pair.end() &&
        it->second.gen_lo ==
            state.wire_gen[static_cast<std::size_t>(key.first)] &&
        it->second.gen_hi ==
            state.wire_gen[static_cast<std::size_t>(key.second)]) {
      emit(report, LintSeverity::Warning, "redundant-comparator", level.line,
           unit,
           "gate '" + std::string(gate->text) + "' repeats the pair {" +
               std::to_string(key.first) + "," + std::to_string(key.second) +
               "} from line " + std::to_string(it->second.line) +
               " with no intervening gate on either wire",
           "consecutive gates on the same untouched pair collapse to a "
           "single element");
    }
  }
  for (const SourceGate* gate : valid) {
    ++state.wire_gen[static_cast<std::size_t>(gate->a)];
    ++state.wire_gen[static_cast<std::size_t>(gate->b)];
    state.touched[static_cast<std::size_t>(gate->a)] = true;
    state.touched[static_cast<std::size_t>(gate->b)] = true;
  }
  for (const SourceGate* gate : valid) {
    const auto key = std::minmax(gate->a, gate->b);
    state.last_pair[key] = {
        state.wire_gen[static_cast<std::size_t>(key.first)],
        state.wire_gen[static_cast<std::size_t>(key.second)], level.line};
  }
}

/// Rebuilds a real ComparatorNetwork from scanned levels; nullopt when the
/// model would reject it (those problems have dedicated diagnostics).
std::optional<ComparatorNetwork> build_circuit(
    long long width, const std::vector<SourceLevel>& levels) {
  try {
    ComparatorNetwork net(static_cast<wire_t>(width));
    for (const SourceLevel& level : levels) append_level(net, level);
    return net;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void check_unused_wires(LintReport& report, long long width,
                        const LevelScanState& state) {
  std::vector<long long> unused;
  for (long long w = 0; w < width; ++w)
    if (!state.touched[static_cast<std::size_t>(w)]) unused.push_back(w);
  if (unused.empty()) return;
  std::ostringstream list;
  const std::size_t shown = std::min<std::size_t>(unused.size(), 8);
  for (std::size_t i = 0; i < shown; ++i)
    list << (i == 0 ? "" : ", ") << unused[i];
  if (unused.size() > shown) list << ", ...";
  emit(report, LintSeverity::Warning, "unused-wire", 0, 0,
       std::to_string(unused.size()) + " wire(s) never touched by any gate: " +
           list.str(),
       "an untouched wire passes its input through unsorted; drop it from "
       "the width or wire it up");
}

/// The `ordinal`-th comparator of a level in the analyzer's coordinates:
/// exchange gates are wiring, not ops, and are skipped (matching
/// OpFinding::op_in_level).
const SourceGate* find_comparator(const SourceLevel& level,
                                  std::uint32_t ordinal) {
  std::uint32_t seen = 0;
  for (const SourceGate& gate : level.gates)
    if (gate.op != 'x' && seen++ == ordinal) return &gate;
  return nullptr;
}

void check_expect_redundant(LintReport& report, const NetworkSource& src,
                            std::optional<std::size_t> proven) {
  if (!src.expect_redundant) return;
  // No comparison without a semantic verdict: an unbuildable circuit has
  // dedicated error diagnostics already.
  if (!proven) return;
  if (*proven == static_cast<std::size_t>(*src.expect_redundant)) return;
  emit(report, LintSeverity::Error, "redundant-mismatch",
       src.expect_redundant_line, 0,
       "directive expects " + std::to_string(*src.expect_redundant) +
           " redundant comparator(s) but the semantic analysis proves " +
           std::to_string(*proven),
       "update the '# lint: expect-redundant' directive or the network");
}

void check_circuit(LintReport& report, const NetworkSource& src) {
  // A well-formed network with zero gates is the identity: one clean
  // observation instead of a cascade of vacuous per-level and unused-wire
  // findings.
  bool has_gates = false;
  for (const SourceLevel& level : src.levels)
    has_gates = has_gates || !level.gates.empty();
  if (!has_gates) {
    emit(report, LintSeverity::Info, "empty-network", 0, 0,
         "circuit declares " + std::to_string(src.width) +
             " wire(s) but contains no gates; it is the identity network");
    check_expect_redundant(report, src, 0);
    return;
  }

  LevelScanState state(src.width);
  for (const SourceLevel& level : src.levels)
    check_level(report, src.width, level, 0, state);
  if (!src.levels.empty()) check_unused_wires(report, src.width, state);

  const std::optional<ComparatorNetwork> net =
      build_circuit(src.width, src.levels);

  // RDN recognition: only meaningful for the shape the lower bound talks
  // about (2^l wires, exactly l levels), and only when the circuit is
  // otherwise clean enough to rebuild.
  if (net && src.width >= 2 &&
      is_pow2(static_cast<std::uint64_t>(src.width)) &&
      src.levels.size() ==
          log2_exact(static_cast<std::uint64_t>(src.width))) {
    if (!recognize_rdn(*net))
      emit(report, LintSeverity::Info, "rdn-unrecognized", 0, 0,
           "circuit has 2^l wires and l levels but is not recognizable "
           "as a reverse delta network by recursive bipartition");
  }

  // Semantic rules: abstract interpretation over the ≤-relation domain
  // (analyze/analyzer.hpp) proves comparators trivial on EVERY input -
  // strictly stronger than the syntactic pair-repeat rule above, which
  // only sees literally repeated pairs.
  std::optional<std::size_t> proven_redundant;
  if (net) {
    const AnalyzeReport sem = analyze(*net);
    proven_redundant = sem.redundant_count();
    for (const OpFinding& finding : sem.trivial_ops) {
      const SourceLevel& level = src.levels[finding.level];
      const SourceGate* gate = find_comparator(level, finding.op_in_level);
      const std::string text = gate ? "'" + std::string(gate->text) + "'"
                                    : "#" + std::to_string(
                                          finding.op_in_level + 1);
      if (finding.fate == OpFate::Redundant) {
        emit(report, LintSeverity::Warning, "analyze-redundant-comparator",
             level.line, 0,
             "gate " + text + " never exchanges: its inputs are provably "
             "already ordered on every input",
             "drop the comparator; the network's outputs are unchanged");
      } else {
        emit(report, LintSeverity::Warning, "analyze-always-exchange",
             level.line, 0,
             "gate " + text + " exchanges on every input: its inputs "
             "arrive in provably reversed order",
             "rewrite the comparator as an exchange gate "
             "('<a>x<b>') - crossed wiring costs no comparison");
      }
    }
    for (const std::uint32_t dead : sem.dead_levels) {
      emit(report, LintSeverity::Warning, "analyze-dead-level",
           src.levels[dead].line, 0,
           "level provably does nothing: every comparator in it is "
           "redundant",
           "delete the level (or its gates); depth drops for free");
    }
  }
  check_expect_redundant(report, src, proven_redundant);
}

void check_register(LintReport& report, const NetworkSource& src) {
  if (src.width % 2 != 0 && src.width != 1)
    emit(report, LintSeverity::Error, "width-odd", src.header_line, 0,
         "register networks pair registers (2k, 2k+1); width " +
             std::to_string(src.width) + " is odd");
  const bool pow2 =
      src.width >= 2 && is_pow2(static_cast<std::uint64_t>(src.width));
  std::vector<long long> shuffle_image;
  if (pow2) {
    const Permutation shuffle =
        shuffle_permutation(static_cast<wire_t>(src.width));
    for (wire_t r = 0; r < shuffle.size(); ++r)
      shuffle_image.push_back(shuffle[r]);
  }

  for (std::size_t i = 0; i < src.steps.size(); ++i) {
    const SourceStep& step = src.steps[i];
    const std::size_t unit = i + 1;
    if (!step.syntax_ok) continue;  // syntax-step already reported
    if (step.shuffle && !pow2) {
      emit(report, LintSeverity::Error, "width-not-pow2", step.line, unit,
           "'step shuffle' requires a power-of-two width, got " +
               std::to_string(src.width));
    }
    if (!step.shuffle) {
      if (const auto problem = permutation_problem(step.perm, src.width)) {
        emit(report, LintSeverity::Error, "perm-invalid", step.line, unit,
             "step permutation " + *problem,
             "a step permutation lists where each register's value moves: "
             "a bijection on 0.." + std::to_string(src.width - 1));
      } else {
        if (!pow2 || step.perm != shuffle_image)
          emit(report, LintSeverity::Warning, "non-shuffle-step", step.line,
               unit,
               "step permutation is not the shuffle; the network is outside "
               "the paper's shuffle-based class",
               "the lower bound (and 'refute') only applies to networks "
               "whose every step shuffles");
      }
    }
    if (src.width > 0) {
      const auto expected = static_cast<std::size_t>(src.width / 2);
      if (step.ops.size() != expected)
        emit(report, LintSeverity::Error, "ops-arity", step.line, unit,
             "step has " + std::to_string(step.ops.size()) +
                 " op symbols, expected n/2 = " + std::to_string(expected),
             "give one symbol from {+, -, 0, 1} per register pair");
      for (const char c : step.ops) {
        if (c != '+' && c != '-' && c != '0' && c != '1') {
          emit(report, LintSeverity::Error, "ops-symbol", step.line, unit,
               std::string("unknown op symbol '") + c + "'",
               "ops are + (min first), - (max first), 0 (idle), "
               "1 (exchange)");
          break;
        }
      }
    }
  }
}

void check_iterated(LintReport& report, const NetworkSource& src) {
  const bool pow2 =
      src.width >= 2 && is_pow2(static_cast<std::uint64_t>(src.width));
  if (!pow2)
    emit(report, LintSeverity::Error, "width-not-pow2", src.header_line, 0,
         "an iterated reverse delta network has 2^l wires, got width " +
             std::to_string(src.width));
  const std::size_t lg =
      pow2 ? log2_exact(static_cast<std::uint64_t>(src.width)) : 0;

  for (std::size_t i = 0; i < src.stages.size(); ++i) {
    const SourceStage& stage = src.stages[i];
    const std::size_t unit = i + 1;
    const std::size_t errors_before = report.count(LintSeverity::Error);

    if (!stage.identity) {
      if (const auto problem = permutation_problem(stage.perm, src.width))
        emit(report, LintSeverity::Error, "perm-invalid", stage.line, unit,
             "stage permutation " + *problem,
             "the free permutation ahead of a chunk must be a bijection "
             "on 0.." + std::to_string(src.width - 1));
    }

    bool tree_ok = false;
    if (stage.tree_line == 0) {
      emit(report, LintSeverity::Error, "tree-invalid", stage.line, unit,
           "stage has no 'tree' line",
           "declare the chunk's recursive wire order, e.g. "
           "'tree 0 1 2 3'");
    } else if (const auto problem =
                   permutation_problem(stage.tree, src.width)) {
      emit(report, LintSeverity::Error, "tree-invalid", stage.tree_line, unit,
           "tree leaf order " + *problem,
           "the tree line lists every wire exactly once; each node splits "
           "its list into halves");
    } else {
      tree_ok = true;
    }

    LevelScanState state(src.width);
    for (const SourceLevel& level : stage.levels)
      check_level(report, src.width, level, unit, state);

    if (pow2 && stage.levels.size() != lg)
      emit(report, LintSeverity::Error, "rdn-stage-depth", stage.line, unit,
           "stage has " + std::to_string(stage.levels.size()) +
               " levels; a reverse delta chunk on " +
               std::to_string(src.width) + " wires has exactly lg n = " +
               std::to_string(lg),
           "pad truncated chunks with empty 'level' lines (the paper's "
           "0/1 elements make sparse levels legal, absent ones not)");

    // Conformance against the declared decomposition tree - only when the
    // stage is structurally sound, so every reported violation is real.
    if (pow2 && tree_ok && stage.levels.size() == lg &&
        report.count(LintSeverity::Error) == errors_before) {
      if (const auto net = build_circuit(src.width, stage.levels)) {
        try {
          const RdnTree tree = RdnTree::from_order(
              wire_image(stage.tree, static_cast<wire_t>(src.width)));
          if (const auto problem = tree.validate(*net))
            emit(report, LintSeverity::Error, "rdn-nonconforming", stage.line,
                 unit,
                 "stage violates the reverse delta definition for its "
                 "declared tree: " + *problem,
                 "every level-t gate must connect the two half-trees of "
                 "one level-t node (Definition 3.4)");
        } catch (const std::exception& e) {
          emit(report, LintSeverity::Error, "tree-invalid", stage.tree_line,
               unit, std::string("tree is not decomposable: ") + e.what());
        }
      }
    }
  }
}

std::size_t total_depth(const NetworkSource& src) {
  switch (src.model) {
    case SourceModel::Circuit: return src.levels.size();
    case SourceModel::Register: return src.steps.size();
    case SourceModel::Iterated: {
      std::size_t depth = 0;
      for (const SourceStage& stage : src.stages) depth += stage.levels.size();
      return depth;
    }
    case SourceModel::Unknown: return 0;
  }
  return 0;
}

}  // namespace

LintReport lint_network_text(const std::string& text) {
  NetworkSource source = scan_network_text(text);
  LintReport report;
  report.model = source_model_name(source.model);
  report.width = static_cast<std::uint64_t>(source.width);
  for (SourceIssue& issue : source.issues)
    report.diagnostics.push_back(
        {issue.warning ? LintSeverity::Warning : LintSeverity::Error,
         issue.rule, issue.line, 0, std::move(issue.message),
         std::move(issue.hint)});
  // The scanner reported a bad width; nothing below may allocate by it.
  if (source.model == SourceModel::Unknown || !source.width_valid)
    return report;

  switch (source.model) {
    case SourceModel::Circuit:
      check_circuit(report, source);
      break;
    case SourceModel::Register:
      check_register(report, source);
      break;
    case SourceModel::Iterated:
      check_iterated(report, source);
      break;
    case SourceModel::Unknown:
      break;
  }

  if (source.expect_redundant && source.model != SourceModel::Circuit)
    emit(report, LintSeverity::Warning, "redundant-mismatch",
         source.expect_redundant_line, 0,
         "'# lint: expect-redundant' applies only to the circuit model; "
         "this network declares '" +
             std::string(source_model_name(source.model)) + "'",
         "drop the directive or flatten the network to a circuit");

  if (source.expect_depth) {
    const std::size_t actual = total_depth(source);
    if (static_cast<long long>(actual) != *source.expect_depth) {
      const char* what = source.model == SourceModel::Register ? "steps"
                                                               : "levels";
      emit(report, LintSeverity::Error, "depth-mismatch",
           source.expect_depth_line, 0,
           "declared depth " + std::to_string(*source.expect_depth) +
               " but the network has " + std::to_string(actual) + " " + what,
           "update the '# lint: expect-depth' directive or the network");
    }
  }

  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return report;
}

}  // namespace shufflebound
