#include "core/io.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "perm/permutation.hpp"
#include "util/bits.hpp"

namespace shufflebound {

namespace {

char op_char(GateOp op) {
  switch (op) {
    case GateOp::CompareAsc:
      return '+';
    case GateOp::CompareDesc:
      return '-';
    case GateOp::Exchange:
      return 'x';
    case GateOp::Passthrough:
      return '0';
  }
  return '?';
}

GateOp gate_op_from_char(char c, std::size_t line_no) {
  switch (c) {
    case '+':
      return GateOp::CompareAsc;
    case '-':
      return GateOp::CompareDesc;
    case 'x':
      return GateOp::Exchange;
    default:
      throw std::invalid_argument("network text line " +
                                  std::to_string(line_no) +
                                  ": unknown gate op '" + c + "'");
  }
}

GateOp register_op_from_char(char c, std::size_t line_no) {
  switch (c) {
    case '+':
      return GateOp::CompareAsc;
    case '-':
      return GateOp::CompareDesc;
    case '1':
      return GateOp::Exchange;
    case '0':
      return GateOp::Passthrough;
    default:
      throw std::invalid_argument("network text line " +
                                  std::to_string(line_no) +
                                  ": unknown register op '" + c + "'");
  }
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("network text line " + std::to_string(line_no) +
                              ": " + what);
}

/// Splits text into (line number, non-empty, comment-stripped) lines.
std::vector<std::pair<std::size_t, std::string>> logical_lines(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::string>> out;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    out.emplace_back(line_no, line.substr(first, last - first + 1));
  }
  return out;
}

}  // namespace

std::string to_text(const ComparatorNetwork& net) {
  std::ostringstream out;
  out << "circuit " << net.width() << "\n";
  for (const Level& level : net.levels()) {
    out << "level";
    for (const Gate& g : level.gates) {
      // Emit in constructor orientation: first endpoint receives the min
      // for '+'. Stored form is already normalized with op relative to lo.
      out << ' ' << g.lo << op_char(g.op) << g.hi;
    }
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

void check_text_width(const char* format, wire_t width) {
  if (width > kMaxTextWidth)
    throw std::invalid_argument(
        std::string(format) + " network text: width " +
        std::to_string(width) + " exceeds kMaxTextWidth = " +
        std::to_string(kMaxTextWidth));
}

std::string to_text(const RegisterNetwork& net) {
  std::ostringstream out;
  out << "register " << net.width() << "\n";
  const Permutation shuffle =
      net.width() >= 2 && is_pow2(net.width()) ? shuffle_permutation(net.width())
                                               : Permutation();
  for (const RegisterStep& step : net.steps()) {
    out << "step ";
    if (!shuffle.empty() && step.perm == shuffle) {
      out << "shuffle";
    } else {
      out << "perm";
      for (wire_t r = 0; r < net.width(); ++r) out << ' ' << step.perm[r];
    }
    out << " ; ops ";
    for (const GateOp op : step.ops) out << gate_op_symbol(op);
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

ComparatorNetwork circuit_from_text(const std::string& text) {
  const auto lines = logical_lines(text);
  if (lines.empty()) throw std::invalid_argument("network text: empty input");
  std::size_t idx = 0;
  std::istringstream head(lines[idx].second);
  std::string keyword;
  wire_t width = 0;
  head >> keyword >> width;
  if (keyword != "circuit" || head.fail())
    fail(lines[idx].first, "expected 'circuit <width>'");
  check_text_width("circuit", width);
  ComparatorNetwork net(width);
  ++idx;
  for (; idx < lines.size(); ++idx) {
    const auto& [line_no, content] = lines[idx];
    std::istringstream in(content);
    std::string word;
    in >> word;
    if (word == "end") return net;
    if (word != "level") fail(line_no, "expected 'level' or 'end'");
    Level level;
    std::string gate_text;
    while (in >> gate_text) {
      const auto op_pos = gate_text.find_first_of("+-x");
      if (op_pos == std::string::npos || op_pos == 0 ||
          op_pos + 1 >= gate_text.size())
        fail(line_no, "malformed gate '" + gate_text + "'");
      // Gate construction itself rejects self-loops, and stoul rejects
      // non-numeric / oversized endpoints; both must surface with the
      // offending line, like every other parse error.
      try {
        const auto a = std::stoul(gate_text.substr(0, op_pos));
        const auto b = std::stoul(gate_text.substr(op_pos + 1));
        level.gates.emplace_back(static_cast<wire_t>(a), static_cast<wire_t>(b),
                                 gate_op_from_char(gate_text[op_pos], line_no));
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
    }
    try {
      net.add_level(std::move(level));
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }
  fail(lines.back().first, "missing 'end'");
}

RegisterNetwork register_from_text(const std::string& text) {
  const auto lines = logical_lines(text);
  if (lines.empty()) throw std::invalid_argument("network text: empty input");
  std::size_t idx = 0;
  std::istringstream head(lines[idx].second);
  std::string keyword;
  wire_t width = 0;
  head >> keyword >> width;
  if (keyword != "register" || head.fail())
    fail(lines[idx].first, "expected 'register <width>'");
  check_text_width("register", width);
  RegisterNetwork net(width);
  ++idx;
  for (; idx < lines.size(); ++idx) {
    const auto& [line_no, content] = lines[idx];
    std::istringstream in(content);
    std::string word;
    in >> word;
    if (word == "end") return net;
    if (word != "step") fail(line_no, "expected 'step' or 'end'");
    in >> word;
    Permutation perm;
    if (word == "shuffle") {
      perm = shuffle_permutation(width);
    } else if (word == "perm") {
      std::vector<wire_t> image(width);
      for (wire_t r = 0; r < width; ++r) {
        if (!(in >> image[r])) fail(line_no, "short permutation");
      }
      try {
        perm = Permutation(std::move(image));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else {
      fail(line_no, "expected 'shuffle' or 'perm'");
    }
    std::string sep, ops_word, ops_text;
    in >> sep >> ops_word >> ops_text;
    if (sep != ";" || ops_word != "ops" || ops_text.size() != width / 2)
      fail(line_no, "expected '; ops <" + std::to_string(width / 2) +
                        " symbols>'");
    std::vector<GateOp> ops(width / 2);
    for (std::size_t k = 0; k < ops.size(); ++k)
      ops[k] = register_op_from_char(ops_text[k], line_no);
    net.add_step(RegisterStep{std::move(perm), std::move(ops)});
  }
  fail(lines.back().first, "missing 'end'");
}

std::string to_dot(const ComparatorNetwork& net) {
  std::ostringstream out;
  out << "digraph comparator_network {\n"
      << "  rankdir=LR;\n  node [shape=point];\n";
  // Node naming: w<i>_<t> = wire i after t levels.
  for (wire_t w = 0; w < net.width(); ++w) {
    out << "  // wire " << w << "\n";
    for (std::size_t t = 0; t <= net.depth(); ++t) {
      out << "  w" << w << "_" << t;
      if (t == 0) out << " [xlabel=\"" << w << "\"]";
      out << ";\n";
      if (t > 0)
        out << "  w" << w << "_" << t - 1 << " -> w" << w << "_" << t
            << " [arrowhead=none];\n";
    }
  }
  for (std::size_t t = 0; t < net.depth(); ++t) {
    for (const Gate& g : net.level(t).gates) {
      const char* style = g.op == GateOp::Exchange ? "dashed" : "solid";
      const char* head = g.op == GateOp::CompareDesc ? "inv" : "normal";
      out << "  w" << g.lo << "_" << t + 1 << " -> w" << g.hi << "_" << t + 1
          << " [constraint=false, style=" << style << ", arrowhead=" << head
          << "];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace shufflebound
