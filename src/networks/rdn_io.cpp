#include "networks/rdn_io.hpp"

#include <sstream>

#include "core/io.hpp"

namespace shufflebound {

namespace {

constexpr const char* kText = "iterated network text";

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
    for (const Level& level : stage.chunk.net.levels())
      out << to_text(level) << "\n";
    out << "endstage\n";
  }
  out << "end\n";
  return out.str();
}

IteratedRdn iterated_from_source(const NetworkSource& src) {
  const wire_t width = strict_width(src, SourceModel::Iterated, kText);
  IteratedRdn net =
      build_at(kText, src.header_line, [&] { return IteratedRdn(width); });
  for (const SourceStage& stage : src.stages) {
    if (!stage.identity && stage.perm.size() < width)
      fail_at(kText, stage.line, "short permutation");
    if (stage.perm.size() > width)
      fail_at(kText, stage.line,
              "permutation has " + std::to_string(stage.perm.size()) +
                  " entries, expected " + std::to_string(width));
    Permutation pre = build_at(kText, stage.line, [&] {
      return stage.identity ? Permutation::identity(width)
                            : Permutation(wire_image(stage.perm, width));
    });
    if (stage.tree_line == 0) fail_at(kText, stage.line, "expected 'tree'");
    if (stage.tree.size() != width)
      fail_at(kText, stage.tree_line, "tree leaf order has wrong size");
    RdnTree tree = build_at(kText, stage.tree_line, [&] {
      return RdnTree::from_order(wire_image(stage.tree, width));
    });
    ComparatorNetwork chunk(width);
    for (const SourceLevel& level : stage.levels)
      build_at(kText, level.line, [&] { append_level(chunk, level); });
    // A stage that breaks the RDN rules is numbered by its first level.
    const std::size_t first_level =
        stage.levels.empty() ? stage.line : stage.levels.front().line;
    build_at(kText, first_level, [&] {
      net.add_stage({std::move(pre), {std::move(chunk), std::move(tree)}});
    });
  }
  return net;
}

IteratedRdn iterated_from_text(const std::string& text) {
  return iterated_from_source(scan_network_text(text));
}

}  // namespace shufflebound
