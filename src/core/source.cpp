#include "core/source.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/io.hpp"

namespace shufflebound {

namespace {

// Character classes, as lambdas so the std algorithms inline them. Blanks
// are trimmed from both ends of a line (a line of nothing else, after its
// comment is cut, is empty); spaces separate the tokens within a line.
constexpr auto is_blank = [](char c) {
  return c == ' ' || c == '\t' || c == '\r';
};
constexpr auto is_space = [](char c) {
  return is_blank(c) || c == '\v' || c == '\f';
};
constexpr auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
constexpr auto is_op = [](char c) { return c == '+' || c == '-' || c == 'x'; };

constexpr const char* kHeaderHint =
    "the first line declares the model: 'circuit <width>', "
    "'register <width>' or 'iterated <width>'";

struct LogicalLine {
  std::size_t number = 0;
  std::string_view text;
};

/// Whitespace-separated tokens of one line. next(word) leaves `word`
/// untouched at the end of the line, so a missing token reads as the
/// previous one - the scanner's error messages rely on it.
struct Tokens {
  std::string_view rest;

  bool next(std::string_view& word) {
    const auto first = std::find_if_not(rest.begin(), rest.end(), is_space);
    if (first == rest.end()) return false;
    const auto last = std::find_if(first, rest.end(), is_space);
    word = std::string_view(first, last);
    rest = std::string_view(last, rest.end());
    return true;
  }

  /// The next token, or "" at the end of the line.
  std::string_view next() {
    std::string_view word;
    next(word);
    return word;
  }
};

/// `token` in single quotes, control bytes written as \xNN - a message
/// must survive std::exception::what(), which ends at a NUL.
std::string quoted(std::string_view token) {
  std::string out = "'";
  for (const char c : token) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte != 0x7f) {
      out.push_back(c);
      continue;
    }
    constexpr char kHex[] = "0123456789abcdef";
    out += "\\x";
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 15]);
  }
  out.push_back('\'');
  return out;
}

void add_issue(NetworkSource& src, const char* rule, std::size_t line,
               std::string message, std::string hint = {}) {
  src.issues.push_back({line, rule, std::move(message), std::move(hint)});
}

/// Parses the payload of a '# lint: ...' comment directive.
void parse_directive(NetworkSource& src, std::size_t line_no,
                     std::string_view payload) {
  struct Directive {
    std::string_view key;
    const char* unit;
    std::optional<long long>& value;
    std::size_t& line;
  };
  const Directive directives[] = {
      {"expect-depth", "levels", src.expect_depth, src.expect_depth_line},
      {"expect-redundant", "comparators", src.expect_redundant,
       src.expect_redundant_line}};
  Tokens tokens{payload};
  std::string_view token;
  while (tokens.next(token)) {
    const auto eq = token.find('=');
    const Directive* known = nullptr;
    for (const Directive& d : directives)
      if (eq != std::string_view::npos && token.substr(0, eq) == d.key)
        known = &d;
    long long value = 0;
    if (known == nullptr) {
      src.issues.push_back({line_no, "unknown-directive",
                            "unknown lint directive " + quoted(token),
                            "supported directives: expect-depth=<levels>, "
                            "expect-redundant=<comparators>",
                            true});
    } else if (parse_decimal(token.substr(eq + 1), value)) {
      known->value = value;
      known->line = line_no;
    } else {
      const std::string key(known->key);
      src.issues.push_back(
          {line_no, "unknown-directive",
           "lint directive '" + key + "' needs a nonnegative integer, got " +
               quoted(token.substr(eq + 1)),
           "write '# lint: " + key + "=<" + known->unit + ">'", true});
    }
  }
}

/// Splits text into (line number, non-blank, comment-stripped) lines,
/// harvesting '# lint:' directives from the stripped comments.
std::vector<LogicalLine> scan_lines(std::string_view text,
                                    NetworkSource& src) {
  std::vector<LogicalLine> out;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const auto newline = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, newline - pos);
    pos = newline + 1;
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) {
      const std::string_view comment = line.substr(hash + 1);
      const auto tag = comment.find("lint:");
      if (tag != std::string_view::npos)
        parse_directive(src, line_no, comment.substr(tag + 5));
      line = line.substr(0, hash);
    }
    const auto first = std::find_if_not(line.begin(), line.end(), is_blank);
    if (first == line.end()) continue;
    const auto last = std::find_if_not(line.rbegin(), line.rend(), is_blank);
    out.push_back({line_no, std::string_view(first, last.base())});
    src.last_line = line_no;
  }
  return out;
}

SourceGate scan_gate(NetworkSource& src, std::size_t line_no,
                     std::string_view token) {
  SourceGate gate;
  gate.text = token;
  const auto op_pos = static_cast<std::size_t>(
      std::find_if(token.begin(), token.end(), is_op) - token.begin());
  if (op_pos == 0 || op_pos + 1 >= token.size() ||
      !parse_decimal(token.substr(0, op_pos), gate.a) ||
      !parse_decimal(token.substr(op_pos + 1), gate.b)) {
    add_issue(src, "syntax-gate", line_no,
              "malformed gate " + quoted(token),
              "gates are written <wire><op><wire> with op one of + - x, "
              "e.g. 0+1");
    return gate;
  }
  gate.op = token[op_pos];
  gate.parsed = true;
  return gate;
}

SourceLevel scan_level(NetworkSource& src, std::size_t line_no,
                       Tokens& tokens) {
  SourceLevel level;
  level.line = line_no;
  std::string_view token;
  while (tokens.next(token))
    level.gates.push_back(scan_gate(src, line_no, token));
  return level;
}

/// Numbers up to the end of the line (or up to a ';' token when `stop`
/// is ";"); each token that is not one is an issue. Returns the last
/// token read, `word` if there was none.
std::string_view scan_numbers(NetworkSource& src, std::size_t line_no,
                              Tokens& tokens, std::string_view word,
                              std::string_view stop, const char* rule,
                              const char* what,
                              std::vector<long long>& values) {
  while (tokens.next(word) && word != stop) {
    long long value = 0;
    if (parse_decimal(word, value)) {
      values.push_back(value);
      continue;
    }
    add_issue(src, rule, line_no,
              std::string(what) + " entry " + quoted(word) +
                  " is not an integer");
  }
  return word;
}

// The body scanners return how many lines they read: all of them, or
// up to and including the line that ends the network.

std::size_t scan_circuit_body(NetworkSource& src,
                              std::span<const LogicalLine> lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const LogicalLine& line = lines[i];
    Tokens tokens{line.text};
    const std::string_view word = tokens.next();
    if (word == "end") {
      src.terminated = true;
      return i + 1;
    }
    if (word != "level") {
      add_issue(src, "syntax-line", line.number,
                "expected 'level' or 'end', got " + quoted(word));
      continue;
    }
    src.levels.push_back(scan_level(src, line.number, tokens));
  }
  return lines.size();
}

std::size_t scan_register_body(NetworkSource& src,
                               std::span<const LogicalLine> lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const LogicalLine& line = lines[i];
    Tokens tokens{line.text};
    std::string_view word = tokens.next();
    if (word == "end") {
      src.terminated = true;
      return i + 1;
    }
    if (word != "step") {
      add_issue(src, "syntax-line", line.number,
                "expected 'step' or 'end', got " + quoted(word));
      continue;
    }
    SourceStep& step = src.steps.emplace_back();
    step.line = line.number;
    const std::size_t issues_before = src.issues.size();
    tokens.next(word);
    if (word == "shuffle") {
      step.shuffle = true;
      tokens.next(word);  // expect ';'
    } else if (word == "perm") {
      word = scan_numbers(src, line.number, tokens, word, ";", "syntax-step",
                          "permutation", step.perm);
    } else {
      add_issue(src, "syntax-step", line.number,
                "expected 'shuffle' or 'perm' after 'step', got " +
                    quoted(word));
      continue;
    }
    std::string_view ops_word;
    if (word != ";" || !tokens.next(ops_word) || ops_word != "ops" ||
        !tokens.next(step.ops))
      add_issue(src, "syntax-step", line.number,
                "expected '; ops <symbols>' after the step permutation",
                "a step is 'step shuffle ; ops <n/2 symbols>' or "
                "'step perm <image> ; ops <n/2 symbols>'");
    step.syntax_ok = src.issues.size() == issues_before;
  }
  return lines.size();
}

void scan_stage_line(NetworkSource& src, std::size_t line_no,
                     Tokens& tokens) {
  SourceStage& stage = src.stages.emplace_back();
  stage.line = line_no;
  const std::string_view perm_word = tokens.next();
  if (perm_word != "perm") {
    add_issue(src, "syntax-stage", line_no,
              "expected 'stage perm ...', got " +
                  quoted("stage " + std::string(perm_word)));
    return;
  }
  Tokens peek = tokens;
  const std::string_view first = peek.next();
  if (first.empty()) {
    add_issue(src, "syntax-stage", line_no,
              "missing permutation after 'stage perm'",
              "write 'stage perm identity' or 'stage perm <image>'");
  } else if (first == "identity") {
    stage.identity = true;
  } else {
    scan_numbers(src, line_no, tokens, {}, {}, "syntax-stage", "permutation",
                 stage.perm);
  }
}

/// A 'tree' line of `stage`; `first_line` is the stage's first inner line.
void scan_tree_line(NetworkSource& src, SourceStage& stage,
                    std::size_t first_line, std::size_t line_no,
                    Tokens& tokens) {
  if (stage.tree_line != 0) {
    add_issue(src, "syntax-stage", line_no,
              "stage already declares its tree on line " +
                  std::to_string(stage.tree_line));
    return;
  }
  if (line_no != first_line)
    add_issue(src, "syntax-stage", line_no,
              "'tree' must directly follow its 'stage' line");
  stage.tree_line = line_no;
  scan_numbers(src, line_no, tokens, {}, {}, "syntax-stage", "tree",
               stage.tree);
}

std::size_t scan_iterated_body(NetworkSource& src,
                               std::span<const LogicalLine> lines) {
  SourceStage* stage = nullptr;
  std::size_t first_line = 0;  // the open stage's first inner line
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const LogicalLine& line = lines[i];
    Tokens tokens{line.text};
    const std::string_view word = tokens.next();
    if (stage == nullptr) {
      if (word == "end") {
        src.terminated = true;
        return i + 1;
      }
      if (word != "stage") {
        add_issue(src, "syntax-stage", line.number,
                  "expected 'stage' or 'end', got " + quoted(word));
        continue;
      }
      scan_stage_line(src, line.number, tokens);
      stage = &src.stages.back();
      first_line = 0;
      continue;
    }
    if (first_line == 0) first_line = line.number;
    if (word == "end") {
      add_issue(src, "syntax-stage", line.number,
                "stage is missing 'endstage' before 'end'");
      src.terminated = true;
      return i + 1;
    }
    if (word == "endstage") {
      stage->closed = true;
      stage = nullptr;
    } else if (word == "tree") {
      scan_tree_line(src, *stage, first_line, line.number, tokens);
    } else if (word == "level") {
      stage->levels.push_back(scan_level(src, line.number, tokens));
    } else {
      add_issue(src, "syntax-stage", line.number,
                "expected 'tree', 'level' or 'endstage', got " +
                    quoted(word));
    }
  }
  return lines.size();
}

struct ModelSyntax {
  const char* keyword;
  SourceModel model;
  std::size_t (*scan_body)(NetworkSource&, std::span<const LogicalLine>);
};

constexpr ModelSyntax kModels[] = {
    {"circuit", SourceModel::Circuit, scan_circuit_body},
    {"register", SourceModel::Register, scan_register_body},
    {"iterated", SourceModel::Iterated, scan_iterated_body}};

}  // namespace

bool parse_decimal(std::string_view token, long long& value) {
  if (token.empty() || !std::all_of(token.begin(), token.end(), is_digit))
    return false;
  return std::from_chars(token.data(), token.data() + token.size(), value)
             .ec == std::errc{};
}

const char* source_model_name(SourceModel model) noexcept {
  for (const ModelSyntax& syntax : kModels)
    if (syntax.model == model) return syntax.keyword;
  return "unknown";
}

NetworkSource scan_network_text(std::string_view text) {
  NetworkSource src;
  const std::vector<LogicalLine> lines = scan_lines(text, src);
  if (lines.empty()) {
    add_issue(src, "syntax-header", 0, "empty input", kHeaderHint);
    return src;
  }

  const LogicalLine& header = lines.front();
  Tokens head{header.text};
  const std::string_view keyword = head.next();
  const std::string_view width_token = head.next();
  src.header_line = header.number;
  const ModelSyntax* syntax = nullptr;
  for (const ModelSyntax& known : kModels)
    if (keyword == known.keyword) syntax = &known;
  if (syntax == nullptr) {
    add_issue(src, "syntax-header", header.number,
              "unknown model keyword " + quoted(keyword), kHeaderHint);
    return src;
  }
  src.model = syntax->model;
  if (!parse_decimal(width_token, src.width)) {
    src.width = 0;
    add_issue(src, "syntax-header", header.number,
              "expected '" + std::string(keyword) + " <width>', got " +
                  quoted(header.text));
  } else {
    const std::span<const LogicalLine> body = std::span(lines).subspan(1);
    const std::size_t read = syntax->scan_body(src, body);
    if (read < body.size())
      add_issue(src, "syntax-line", body[read].number,
                "text after 'end', got " +
                    quoted(Tokens{body[read].text}.next()),
                "the network ends at its 'end' line; move this line above "
                "it or delete it");
    if (!src.terminated) {
      const bool open_stage =
          !src.stages.empty() && !src.stages.back().closed;
      add_issue(src, "missing-end", src.last_line,
                open_stage ? "input ends inside a stage (missing 'endstage')"
                           : "input is truncated (missing 'end')",
                "terminate the network with an 'end' line");
    }
  }

  // The one width check: nothing downstream allocates by an invalid width.
  src.width_valid = src.width > 0 && src.width <= kMaxTextWidth;
  if (src.width > kMaxTextWidth)
    add_issue(src, "width-invalid", src.header_line,
              "declared width " + std::to_string(src.width) +
                  " exceeds kMaxTextWidth = " + std::to_string(kMaxTextWidth));
  else if (!src.width_valid)
    add_issue(src, "width-invalid", src.header_line,
              "declared width " + std::to_string(src.width) +
                  " is not a positive wire count");
  return src;
}

void fail_at(const char* prefix, std::size_t line, const std::string& what) {
  std::string message = prefix;
  if (line != 0) message += " line " + std::to_string(line);
  throw std::invalid_argument(message + ": " + what);
}

const SourceIssue* first_issue(const NetworkSource& src) {
  const SourceIssue* first = nullptr;
  for (const SourceIssue& issue : src.issues)
    if (!issue.warning && (first == nullptr || issue.line < first->line))
      first = &issue;
  return first;
}

wire_t strict_width(const NetworkSource& src, SourceModel model,
                    const char* prefix) {
  if (src.header_line != 0 && src.model != model)
    fail_at(prefix, src.header_line,
            "expected '" + std::string(source_model_name(model)) +
                " <width>'");
  if (const SourceIssue* issue = first_issue(src))
    fail_at(prefix, issue->line, issue->message);
  return static_cast<wire_t>(src.width);
}

std::vector<wire_t> wire_image(const std::vector<long long>& entries,
                               wire_t width) {
  constexpr long long kNoWire = std::numeric_limits<wire_t>::max();
  std::vector<wire_t> image(width);
  for (wire_t r = 0; r < width; ++r)
    image[r] = static_cast<wire_t>(std::min(entries[r], kNoWire));
  return image;
}

void append_level(ComparatorNetwork& net, const SourceLevel& level) {
  // Endpoints past the width (which need not even fit a wire_t) stand in
  // as the first two wires past it, equal exactly when the written ones
  // are: the Gate constructor and add_level then report self-loops, range
  // and shared wires in the model's own words and order.
  const long long width = net.width();
  Level built;
  built.gates.reserve(level.gates.size());
  for (const SourceGate& gate : level.gates) {
    if (!gate.parsed)
      throw std::invalid_argument("malformed gate " + quoted(gate.text));
    const auto a = static_cast<wire_t>(std::min(gate.a, width));
    const auto b = static_cast<wire_t>(
        gate.b < width || gate.b == gate.a ? std::min(gate.b, width)
                                           : width + (a == width ? 1 : 0));
    built.gates.emplace_back(a, b,
                             gate.op == '+'   ? GateOp::CompareAsc
                             : gate.op == '-' ? GateOp::CompareDesc
                                              : GateOp::Exchange);
  }
  net.add_level(std::move(built));
}

}  // namespace shufflebound
