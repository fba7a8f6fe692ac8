#include "core/io.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "perm/permutation.hpp"
#include "util/bits.hpp"

namespace shufflebound {

namespace {

char op_char(GateOp op) {
  return op == GateOp::Exchange ? 'x' : gate_op_symbol(op);
}

constexpr const char* kText = "network text";

GateOp register_op_from_char(char c, std::size_t line_no) {
  for (const GateOp op : {GateOp::CompareAsc, GateOp::CompareDesc,
                          GateOp::Exchange, GateOp::Passthrough})
    if (gate_op_symbol(op) == c) return op;
  fail_at(kText, line_no, std::string("unknown register op '") + c + "'");
}

}  // namespace

std::string to_text(const ComparatorNetwork& net) {
  std::ostringstream out;
  out << "circuit " << net.width() << "\n";
  for (const Level& level : net.levels()) out << to_text(level) << "\n";
  out << "end\n";
  return out.str();
}

std::string to_text(const Level& level) {
  std::ostringstream out;
  out << "level";
  // Emit in constructor orientation: first endpoint receives the min for
  // '+'. Stored form is already normalized with op relative to lo.
  for (const Gate& g : level.gates)
    out << ' ' << g.lo << op_char(g.op) << g.hi;
  return out.str();
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

ComparatorNetwork circuit_from_source(const NetworkSource& src) {
  ComparatorNetwork net(strict_width(src, SourceModel::Circuit, kText));
  for (const SourceLevel& level : src.levels)
    build_at(kText, level.line, [&] { append_level(net, level); });
  return net;
}

ComparatorNetwork circuit_from_text(const std::string& text) {
  return circuit_from_source(scan_network_text(text));
}

RegisterNetwork register_from_source(const NetworkSource& src) {
  const wire_t width = strict_width(src, SourceModel::Register, kText);
  RegisterNetwork net =
      build_at(kText, src.header_line, [&] { return RegisterNetwork(width); });
  const std::size_t arity = width / 2;
  for (const SourceStep& step : src.steps) {
    if (!step.shuffle && step.perm.size() < width)
      fail_at(kText, step.line, "short permutation");
    Permutation perm = build_at(kText, step.line, [&] {
      return step.shuffle ? shuffle_permutation(width)
                          : Permutation(wire_image(step.perm, width));
    });
    if (step.perm.size() > width || step.ops.size() != arity)
      fail_at(kText, step.line,
              "expected '; ops <" + std::to_string(arity) + " symbols>'");
    std::vector<GateOp> ops(arity);
    for (std::size_t k = 0; k < arity; ++k)
      ops[k] = register_op_from_char(step.ops[k], step.line);
    net.add_step(RegisterStep{std::move(perm), std::move(ops)});
  }
  return net;
}

RegisterNetwork register_from_text(const std::string& text) {
  return register_from_source(scan_network_text(text));
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
