#include "networks/rdn_io.hpp"

#include <sstream>
#include <stdexcept>

#include "core/io.hpp"

namespace shufflebound {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("iterated network text: " + what);
}

[[noreturn]] void fail_line(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("iterated network text line " +
                              std::to_string(line_no) + ": " + what);
}

[[noreturn]] void fail_at(std::size_t line_no, const char* what,
                          std::string_view entry) {
  fail_line(line_no, std::string(what) + " entry '" + std::string(entry) +
                         "' is not an integer");
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
    for (const Level& level : stage.chunk.net.levels())
      out << to_text(level) << "\n";
    out << "endstage\n";
  }
  out << "end\n";
  return out.str();
}

IteratedRdn iterated_from_source(const NetworkSource& src) {
  if (src.header_line == 0) fail("empty input");
  const auto width = declared_width(src, SourceModel::Iterated);
  if (!width) fail("expected 'iterated <width>'");
  IteratedRdn net(*width);
  for (const SourceStage& stage : src.stages) {
    if (src.stray_line != 0 && src.stray_line < stage.line) break;
    if (!stage.perm_ok) fail("expected 'stage perm'");
    Permutation pre;
    if (stage.identity) {
      pre = Permutation::identity(*width);
    } else {
      if (!stage.bad_entry.empty())
        fail_at(stage.line, "permutation", stage.bad_entry);
      if (stage.perm.empty()) fail("missing permutation");
      if (stage.perm.size() < *width) fail("short permutation");
      pre = Permutation(wire_image(stage.perm, *width));
      if (stage.perm.size() > *width)
        fail("permutation has " + std::to_string(stage.perm.size()) +
             " entries, expected " + std::to_string(*width));
    }
    if (stage.tree_line == 0 || stage.tree_line != stage.first_line)
      fail("expected 'tree'");
    if (!stage.bad_tree_entry.empty())
      fail_at(stage.tree_line, "tree", stage.bad_tree_entry);
    if (stage.tree.size() != *width) fail("tree leaf order has wrong size");
    RdnTree tree = RdnTree::from_order(wire_image(stage.tree, *width));
    ComparatorNetwork chunk(*width);
    for (const SourceLevel& level : stage.levels) {
      if (stage.stray_line != 0 && stage.stray_line < level.line) break;
      try {
        append_level(chunk, level);
      } catch (const std::invalid_argument& e) {
        fail_line(level.line, e.what());
      }
    }
    if (stage.stray_line != 0 || (!stage.closed && src.terminated))
      fail("expected 'level' or 'endstage'");
    if (!stage.closed) fail("missing 'endstage'");
    try {
      net.add_stage(IteratedRdn::Stage{
          std::move(pre), RdnChunk{std::move(chunk), std::move(tree)}});
    } catch (const std::invalid_argument& e) {
      // A stage that breaks the RDN rules is numbered by its first level.
      fail_line(stage.levels.empty() ? stage.line : stage.levels.front().line,
                e.what());
    }
  }
  if (src.stray_line != 0) fail("expected 'stage perm'");
  if (!src.terminated) fail("missing 'end'");
  return net;
}

IteratedRdn iterated_from_text(const std::string& text) {
  return iterated_from_source(scan_network_text(text));
}

}  // namespace shufflebound
