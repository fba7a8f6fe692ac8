#include "networks/rdn_io.hpp"

#include <sstream>
#include <stdexcept>

#include "core/io.hpp"

namespace shufflebound {

namespace {

char gate_text_op(GateOp op) {
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

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("iterated network text: " + what);
}

}  // namespace

std::string to_text(const IteratedRdn& net) {
  std::ostringstream out;
  out << "iterated " << net.width() << "\n";
  for (const IteratedRdn::Stage& stage : net.stages()) {
    out << "stage perm";
    if (stage.pre.is_identity()) {
      out << " identity";
    } else {
      for (wire_t j = 0; j < net.width(); ++j) out << ' ' << stage.pre[j];
    }
    out << "\ntree";
    for (const wire_t w : stage.chunk.tree.leaf_order()) out << ' ' << w;
    out << "\n";
    for (const Level& level : stage.chunk.net.levels()) {
      out << "level";
      for (const Gate& g : level.gates)
        out << ' ' << g.lo << gate_text_op(g.op) << g.hi;
      out << "\n";
    }
    out << "endstage\n";
  }
  out << "end\n";
  return out.str();
}

IteratedRdn iterated_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto next_line = [&]() -> std::optional<std::string> {
    while (std::getline(in, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      const auto last = line.find_last_not_of(" \t\r");
      return line.substr(first, last - first + 1);
    }
    return std::nullopt;
  };

  auto header = next_line();
  if (!header) fail("empty input");
  std::istringstream head(*header);
  std::string keyword;
  wire_t width = 0;
  head >> keyword >> width;
  if (keyword != "iterated" || head.fail() || width == 0)
    fail("expected 'iterated <width>'");
  check_text_width("iterated", width);
  IteratedRdn net(width);

  for (auto row = next_line(); row; row = next_line()) {
    if (*row == "end") return net;
    // --- stage perm ... ---
    std::istringstream stage_in(*row);
    std::string word, perm_word;
    stage_in >> word >> perm_word;
    if (word != "stage" || perm_word != "perm") fail("expected 'stage perm'");
    Permutation pre;
    std::string maybe_identity;
    if (stage_in >> maybe_identity) {
      if (maybe_identity == "identity") {
        pre = Permutation::identity(width);
      } else {
        std::vector<wire_t> image(width);
        image[0] = static_cast<wire_t>(std::stoul(maybe_identity));
        for (wire_t j = 1; j < width; ++j) {
          if (!(stage_in >> image[j])) fail("short permutation");
        }
        pre = Permutation(std::move(image));
      }
    } else {
      fail("missing permutation");
    }
    // --- tree ... ---
    auto tree_row = next_line();
    if (!tree_row || tree_row->rfind("tree", 0) != 0) fail("expected 'tree'");
    std::istringstream tree_in(tree_row->substr(4));
    std::vector<wire_t> order;
    wire_t w;
    while (tree_in >> w) order.push_back(w);
    if (order.size() != width) fail("tree leaf order has wrong size");
    RdnTree tree = RdnTree::from_order(std::move(order));
    // --- levels until endstage ---
    ComparatorNetwork chunk(width);
    for (auto body = next_line();; body = next_line()) {
      if (!body) fail("missing 'endstage'");
      if (*body == "endstage") break;
      if (body->rfind("level", 0) != 0) fail("expected 'level' or 'endstage'");
      // Reuse the circuit gate syntax by wrapping one line.
      const std::string wrapped =
          "circuit " + std::to_string(width) + "\n" + *body + "\nend\n";
      const ComparatorNetwork one = circuit_from_text(wrapped);
      chunk.add_level(one.level(0));
    }
    net.add_stage(IteratedRdn::Stage{std::move(pre),
                                     RdnChunk{std::move(chunk), std::move(tree)}});
  }
  fail("missing 'end'");
}

}  // namespace shufflebound
