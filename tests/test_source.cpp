// The shared network-text scanner (core/source.hpp): one language for the
// strict parsers, parse_any_network and the linter.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/io.hpp"
#include "core/source.hpp"
#include "lint/linter.hpp"
#include "networks/batcher.hpp"
#include "networks/rdn.hpp"
#include "networks/rdn_io.hpp"
#include "networks/shuffle.hpp"
#include "service/job.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

/// The strict parse's error message, or nullopt when it accepts `text`.
std::optional<std::string> strict_error(const std::string& text) {
  try {
    (void)parse_any_network(text);
    return std::nullopt;
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

/// The report's first syntax, missing-end or width-invalid finding (the
/// report is sorted by line), or null.
const Diagnostic* first_syntax_finding(const LintReport& report) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule.starts_with("syntax-") || d.rule == "missing-end" ||
        d.rule == "width-invalid")
      return &d;
  return nullptr;
}

bool has_syntax_finding(const LintReport& report) {
  return first_syntax_finding(report) != nullptr;
}

std::vector<std::string> corpus_dir(const std::filesystem::path& dir) {
  std::vector<std::string> texts;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    texts.push_back(buf.str());
  }
  return texts;
}

/// The fixtures and the fuzz seeds.
std::vector<std::string> fixture_texts() {
  const std::filesystem::path data(SB_TEST_DATA_DIR);
  std::vector<std::string> texts = corpus_dir(data);
  for (const std::string& seed : corpus_dir(data / "fuzz_seeds"))
    texts.push_back(seed);
  return texts;
}

/// One generated network per model and shape (`rng` draws the random
/// ones).
std::vector<std::string> generated_texts(Prng& rng) {
  return {
      to_text(bitonic_sorting_network(8)),
      to_text(random_shuffle_network(8, 5, rng, {10, 5})),
      to_text(shuffle_to_iterated_rdn(
          random_shuffle_network(8, 6, rng, {10, 5}))),
      to_text(make_iterated_rdn(
          4, 2, [&](std::size_t) { return random_rdn(2, rng, 0, 5); },
          [&](std::size_t) { return random_permutation(4, rng); })),
  };
}

/// One edit of `text`: a byte deletion or insertion, a swap of two
/// neighbouring tokens, or a rewritten number.
std::string mutate(std::string text, Prng& rng) {
  static const char kNoise[] = "0123456789 +-x\n#;aelnpst";
  const std::size_t pos = rng.below(text.size());
  switch (rng.below(4)) {
    case 0:
      text.erase(pos, 1);
      break;
    case 1:
      text.insert(pos, 1, kNoise[rng.below(sizeof(kNoise) - 1)]);
      break;
    case 2: {
      const auto a = text.find_first_not_of(" \n", text.find(' ', pos));
      const auto a_end = text.find_first_of(" \n", a);
      if (a_end == std::string::npos || text[a_end] != ' ') break;
      const auto b = a_end + 1;
      const auto b_end = std::min(text.find_first_of(" \n", b), text.size());
      const std::string first = text.substr(a, a_end - a);
      const std::string second = text.substr(b, b_end - b);
      text.replace(a, b_end - a, second + " " + first);
      break;
    }
    default: {
      const auto start = std::min(text.find_first_of("0123456789", pos),
                                  text.size());
      const auto end =
          std::min(text.find_first_not_of("0123456789", start), text.size());
      static const char* const kNumbers[] = {"0", "1", "7", "16", "99",
                                             "4294967296"};
      text.replace(start, end - start, kNumbers[rng.below(6)]);
      break;
    }
  }
  return text;
}

// The strict parse rejects every text the linter finds a syntax,
// missing-end or width-invalid problem in - with that finding's own
// message at its line - and accepts every text the linter finds no error
// in: over the fixtures, the fuzz seeds and a mutation set in all three
// formats, the two front ends speak one language. Every strict rejection
// but empty input names its line.
TEST(Source, StrictParseAgreesWithLintSyntax) {
  std::vector<std::string> texts = fixture_texts();
  Prng rng(16);
  for (const std::string& text : generated_texts(rng)) {
    texts.push_back(text);
    for (int k = 0; k < 150; ++k) texts.push_back(mutate(text, rng));
  }

  const std::regex names_line(" line [0-9]+: ");
  std::size_t rejected_for_syntax = 0, accepted_clean = 0;
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    const LintReport report = lint_network_text(text);
    const std::optional<std::string> error = strict_error(text);
    if (const Diagnostic* finding = first_syntax_finding(report)) {
      ASSERT_TRUE(error.has_value());
      const std::string prefix =
          scan_network_text(text).model == SourceModel::Iterated
              ? "iterated network text"
              : "network text";
      const std::string where =
          finding->line == 0 ? "" : " line " + std::to_string(finding->line);
      EXPECT_EQ(*error, prefix + where + ": " + finding->message);
      ++rejected_for_syntax;
    } else if (!report.has_errors()) {
      EXPECT_FALSE(error.has_value()) << *error;
      ++accepted_clean;
    }
    if (error && *error != "network text: empty input") {
      EXPECT_TRUE(std::regex_search(*error, names_line)) << *error;
    }
  }
  EXPECT_GT(rejected_for_syntax, 100u);
  EXPECT_GT(accepted_clean, 10u);
}

// parse_any_network builds exactly the model the text declares, and the
// circuit it derives for the circuit readers is the flattening the model
// itself defines: over every valid text of the corpus and the analyze
// corpus of examples/.
TEST(Source, ParseAnyNetworkBuildsTheDeclaredModel) {
  std::vector<std::string> texts = fixture_texts();
  Prng rng(19);
  for (const std::string& text : generated_texts(rng)) texts.push_back(text);
  for (const std::string& text :
       corpus_dir(std::filesystem::path(SB_TEST_DATA_DIR) / ".." / ".." /
                  "examples" / "corpus"))
    texts.push_back(text);
  std::size_t valid[3] = {};
  for (const std::string& text : texts) {
    if (strict_error(text)) continue;
    SCOPED_TRACE(text);
    const ParsedNetwork net = parse_any_network(text);
    const ComparatorNetwork circuit = net.visit_circuit(
        [](const ComparatorNetwork& flat) { return flat; });
    switch (scan_network_text(text).model) {
      case SourceModel::Circuit:
        ASSERT_TRUE(std::holds_alternative<ComparatorNetwork>(net.model));
        EXPECT_EQ(circuit, circuit_from_text(text));
        ++valid[0];
        break;
      case SourceModel::Register:
        ASSERT_TRUE(std::holds_alternative<RegisterNetwork>(net.model));
        EXPECT_EQ(circuit,
                  register_to_circuit(register_from_text(text)).circuit);
        ++valid[1];
        break;
      case SourceModel::Iterated:
        ASSERT_TRUE(std::holds_alternative<IteratedRdn>(net.model));
        EXPECT_EQ(circuit, iterated_from_text(text).flatten().circuit);
        EXPECT_STREQ(net.model_name(), "iterated");
        ++valid[2];
        break;
      case SourceModel::Unknown:
        ADD_FAILURE() << "accepted text without a model";
    }
  }
  for (const std::size_t count : valid) EXPECT_GE(count, 2u);
}

TEST(Source, TokensPointIntoTheText) {
  const std::string text = "circuit 4\nlevel 0+1 2-3\nend\n";
  const NetworkSource src = scan_network_text(text);
  ASSERT_EQ(src.levels.size(), 1u);
  const std::string_view gate = src.levels[0].gates[1].text;
  EXPECT_EQ(gate, "2-3");
  EXPECT_EQ(gate.data(), text.data() + text.find("2-3"));
  EXPECT_EQ(src.levels[0].line, 2u);
  EXPECT_TRUE(src.terminated);
}

TEST(Source, NumbersAreUnsignedDecimalDigits) {
  for (const char* gate : {"0++1", "0+-1", "+0+1", "0+1a", "0a+1"}) {
    const std::string text =
        std::string("circuit 4\nlevel ") + gate + "\nend\n";
    const NetworkSource src = scan_network_text(text);
    ASSERT_EQ(src.levels.size(), 1u) << gate;
    EXPECT_FALSE(src.levels[0].gates[0].parsed) << gate;
    EXPECT_THROW(circuit_from_text(text), std::invalid_argument) << gate;
  }
  for (const char* header : {"circuit +4\nend\n", "circuit 4x\nend\n"}) {
    const NetworkSource src = scan_network_text(header);
    EXPECT_FALSE(src.width_valid) << header;
    EXPECT_STREQ(src.issues.front().rule, "syntax-header") << header;
  }
}

TEST(Source, WidthCapIsCheckedOnceAtTheHeader) {
  const NetworkSource src = scan_network_text("circuit 1000000000\nend\n");
  EXPECT_EQ(src.width, 1000000000);
  EXPECT_FALSE(src.width_valid);
  ASSERT_FALSE(src.issues.empty());
  EXPECT_STREQ(src.issues.back().rule, "width-invalid");
  EXPECT_TRUE(scan_network_text("circuit 1048576\nend\n").width_valid);
  EXPECT_FALSE(scan_network_text("circuit 0\nend\n").width_valid);
}

TEST(Source, TreeMustDirectlyFollowItsStage) {
  const std::string late_tree =
      "iterated 2\nstage perm identity\nlevel 0+1\ntree 0 1\nendstage\nend\n";
  EXPECT_THROW(iterated_from_text(late_tree), std::invalid_argument);
  EXPECT_TRUE(has_syntax_finding(lint_network_text(late_tree)));
  const std::string second_tree =
      "iterated 2\nstage perm identity\ntree 0 1\ntree 1 0\nlevel 0+1\n"
      "endstage\nend\n";
  EXPECT_THROW(iterated_from_text(second_tree), std::invalid_argument);
  EXPECT_TRUE(has_syntax_finding(lint_network_text(second_tree)));
}

// A network ends at its 'end' line. A non-blank, non-comment line after
// it is a syntax-line error at that line, in every model, for the strict
// parsers and the linter alike; blank and comment lines stay free.
TEST(Source, TextAfterEndIsRejectedAtItsLine) {
  std::ifstream in(std::filesystem::path(SB_TEST_DATA_DIR) /
                   "iterated_sample.txt");
  std::ostringstream iterated;
  iterated << in.rdbuf();
  const std::pair<std::string, std::size_t> cases[] = {
      {"circuit 4\nlevel 0+1\nend\nlevel 1x2\n", 4},
      {"register 2\nstep shuffle ; ops +\nend\n\n# note\nend\n", 6},
      {iterated.str() + "stage perm identity\n", 17}};
  for (const auto& [text, line] : cases) {
    SCOPED_TRACE(text);
    const std::optional<std::string> error = strict_error(text);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find(" line " + std::to_string(line) +
                          ": text after 'end'"),
              std::string::npos)
        << *error;
    const LintReport report = lint_network_text(text);
    const Diagnostic* finding = first_syntax_finding(report);
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->rule, "syntax-line");
    EXPECT_EQ(finding->line, line);
  }
  EXPECT_FALSE(
      strict_error("circuit 4\nlevel 0+1\nend\n\n# trailing note\n"));
}

}  // namespace
}  // namespace shufflebound
