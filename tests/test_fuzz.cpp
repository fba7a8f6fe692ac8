// Robustness fuzzing of every text parser: random corruption of valid
// artifacts and raw random bytes must produce clean std::invalid_argument
// failures (or valid parses), never crashes or silent misreads.
//
// A deterministic seed corpus (tests/data/fuzz_seeds/) replays first:
// regressions caught by past fuzzing stay caught even when the random
// iterations are scaled down (SB_TEST_ITERS_SCALE).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/certificate.hpp"
#include "adversary/refuter.hpp"
#include "core/io.hpp"
#include "env_iters.hpp"
#include "lint/linter.hpp"
#include "networks/rdn_io.hpp"
#include "networks/batcher.hpp"
#include "networks/shuffle.hpp"
#include "pattern/format.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

std::string mutate(std::string text, Prng& rng, int edits) {
  static const char kNoise[] = "0123456789 +-x\nlevend circuit#;,";
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) break;
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(3)) {
      case 0:
        text[pos] = kNoise[rng.below(sizeof(kNoise) - 1)];
        break;
      case 1:
        text.erase(pos, 1);
        break;
      default:
        text.insert(pos, 1, kNoise[rng.below(sizeof(kNoise) - 1)]);
        break;
    }
  }
  return text;
}

template <typename ParseFn>
void fuzz_parser(const std::string& seed_text, ParseFn parse, int rounds,
                 std::uint64_t seed) {
  Prng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const std::string corrupted =
        mutate(seed_text, rng, 1 + static_cast<int>(rng.below(8)));
    try {
      parse(corrupted);  // a valid parse is fine; a throw is fine
    } catch (const std::invalid_argument&) {
      // expected failure mode
    } catch (const std::out_of_range&) {
      // stoul overflow on giant numerals - acceptable rejection
    }
    // Anything else (segfault, std::bad_alloc storm, logic_error)
    // escapes and fails the test.
  }
}

// Every corpus file goes through every parser: a parser either accepts
// the text or rejects it with the documented exception types. Crashes,
// logic_errors, and silent misreads fail here before any random fuzzing
// runs.
template <typename ParseFn>
void replay_seed(const std::string& text, ParseFn parse) {
  try {
    parse(text);
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  } catch (const std::runtime_error&) {
  }
}

TEST(Fuzz, SeedCorpusReplays) {
  const std::filesystem::path dir =
      std::filesystem::path(SB_TEST_DATA_DIR) / "fuzz_seeds";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "empty seed corpus: " << dir;
  for (const std::filesystem::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    replay_seed(text, [](const std::string& t) { (void)circuit_from_text(t); });
    replay_seed(text,
                [](const std::string& t) { (void)register_from_text(t); });
    replay_seed(text,
                [](const std::string& t) { (void)iterated_from_text(t); });
    replay_seed(text,
                [](const std::string& t) { (void)certificate_from_text(t); });
    replay_seed(text, [](const std::string& t) { (void)pattern_from_text(t); });
    replay_seed(text, [](const std::string& t) {
      EXPECT_NO_THROW((void)lint_network_text(t));
    });
  }
}

std::string read_seed(const char* name) {
  std::ifstream in(std::filesystem::path(SB_TEST_DATA_DIR) / "fuzz_seeds" /
                   name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The over-limit width seeds: each parser rejects its own format's
// hostile header with one invalid_argument naming the limit, before any
// width-sized allocation. A header at the limit still parses.
TEST(Fuzz, OverLimitWidthsAreRejected) {
  const auto expect_limit_error = [](auto parse, const std::string& text) {
    try {
      parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("kMaxTextWidth"),
                std::string::npos)
          << e.what();
    }
  };
  expect_limit_error([](const std::string& t) { (void)circuit_from_text(t); },
                     read_seed("circuit_huge_width.txt"));
  expect_limit_error([](const std::string& t) { (void)register_from_text(t); },
                     read_seed("register_huge_width.txt"));
  expect_limit_error([](const std::string& t) { (void)iterated_from_text(t); },
                     read_seed("iterated_huge_width.txt"));
  const std::string at_limit =
      "circuit " + std::to_string(kMaxTextWidth) + "\nend\n";
  EXPECT_EQ(circuit_from_text(at_limit).width(), kMaxTextWidth);
  expect_limit_error([](const std::string& t) { (void)circuit_from_text(t); },
                     "circuit " + std::to_string(kMaxTextWidth + 1) +
                         "\nend\n");
}

// The linter reads the same over-limit seeds through the same scanner:
// one width-invalid error naming the limit, and no width-sized
// allocation (CI runs the suite under a virtual-memory cap).
TEST(Fuzz, LintReportsOverLimitWidths) {
  for (const char* name : {"circuit_huge_width.txt", "register_huge_width.txt",
                           "iterated_huge_width.txt"}) {
    SCOPED_TRACE(name);
    const LintReport report = lint_network_text(read_seed(name));
    const auto it = std::find_if(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const Diagnostic& d) { return d.rule == "width-invalid"; });
    ASSERT_NE(it, report.diagnostics.end());
    EXPECT_EQ(it->severity, LintSeverity::Error);
    EXPECT_NE(it->message.find("kMaxTextWidth"), std::string::npos)
        << it->message;
  }
}

// Iterated permutation entries that are no number, or overflow, fail with
// one invalid_argument naming the line and the token: never
// std::out_of_range, never a bare "stoul".
TEST(Fuzz, IteratedPermutationEntriesNameLineAndToken) {
  const std::pair<const char*, std::string> seeds[] = {
      {"iterated_perm_entry_out_of_range.txt", "99999999999999999999"},
      {"iterated_perm_entry_not_a_number.txt", "three"}};
  for (const auto& [name, token] : seeds) {
    SCOPED_TRACE(name);
    try {
      (void)iterated_from_text(read_seed(name));
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "iterated network text line 2: permutation entry '" + token +
                    "' is not an integer");
    }
  }
}

// A CRC-valid v2 certificate claiming n = 4e9 with an 8-byte body: the
// decoder rejects it before reserving the n-symbol pattern.
TEST(Fuzz, CertificateWidthBeyondBodyIsRejected) {
  std::ifstream in(std::filesystem::path(SB_TEST_DATA_DIR) / "fuzz_seeds" /
                   "certificate_v2_huge_n.txt");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    (void)certificate_from_text(buf.str());
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n exceeds body size"),
              std::string::npos)
        << e.what();
  }
}

TEST(Fuzz, CircuitParserSurvivesCorruption) {
  const std::string seed_text = to_text(bitonic_sorting_network(8));
  fuzz_parser(seed_text,
              [](const std::string& t) { (void)circuit_from_text(t); }, testenv::scaled(500),
              1);
}

TEST(Fuzz, RegisterParserSurvivesCorruption) {
  Prng rng(2);
  const std::string seed_text = to_text(random_shuffle_network(8, 4, rng));
  fuzz_parser(seed_text,
              [](const std::string& t) { (void)register_from_text(t); }, testenv::scaled(500),
              3);
}

TEST(Fuzz, PatternParserSurvivesCorruption) {
  fuzz_parser("S0 M0 X1,2 M3 L0 L1",
              [](const std::string& t) { (void)pattern_from_text(t); }, testenv::scaled(500),
              4);
}

TEST(Fuzz, CertificateParserSurvivesCorruption) {
  Prng rng(5);
  const RegisterNetwork net = random_shuffle_network(16, 5, rng);
  const auto refutation = refute(net);
  ASSERT_EQ(refutation.status, RefutationStatus::Refuted);
  const std::string seed_text = to_text(*refutation.certificate);
  fuzz_parser(seed_text,
              [](const std::string& t) { (void)certificate_from_text(t); },
              testenv::scaled(500), 6);
}

TEST(Fuzz, IteratedParserSurvivesCorruption) {
  Prng rng(9);
  const std::uint32_t d = 3;
  IteratedRdn net(8);
  Prng build(10);
  net.add_stage({Permutation::identity(8), random_rdn(d, build, 10, 5)});
  net.add_stage({random_permutation(8, build), random_rdn(d, build, 10, 5)});
  const std::string seed_text = to_text(net);
  fuzz_parser(seed_text,
              [](const std::string& t) { (void)iterated_from_text(t); }, testenv::scaled(500),
              11);
}

TEST(Fuzz, RawGarbageRejectedEverywhere) {
  Prng rng(7);
  for (int round = 0; round < testenv::scaled(200); ++round) {
    std::string garbage(rng.below(120), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.below(256));
    EXPECT_THROW(
        {
          try {
            (void)circuit_from_text(garbage);
          } catch (const std::out_of_range&) {
            throw std::invalid_argument("overflow");
          }
        },
        std::invalid_argument);
    EXPECT_THROW(
        {
          try {
            (void)register_from_text(garbage);
          } catch (const std::out_of_range&) {
            throw std::invalid_argument("overflow");
          }
        },
        std::invalid_argument);
    EXPECT_THROW((void)certificate_from_text(garbage), std::invalid_argument);
  }
}

TEST(Fuzz, ParsedValidCircuitsStayValid) {
  // When corruption happens to parse, the result must still satisfy the
  // network invariants (disjoint levels etc.) - probed by evaluating.
  Prng rng(8);
  const std::string seed_text = to_text(odd_even_mergesort_network(8));
  for (int round = 0; round < testenv::scaled(300); ++round) {
    const std::string corrupted = mutate(seed_text, rng, 3);
    ComparatorNetwork net;
    try {
      net = circuit_from_text(corrupted);
    } catch (const std::exception&) {
      continue;
    }
    // Evaluation on a valid input must produce a permutation.
    Prng rng2(round);
    if (net.width() == 0) continue;
    const auto input = random_permutation(net.width(), rng2);
    auto out = net.evaluate(
        std::vector<wire_t>(input.image().begin(), input.image().end()));
    std::sort(out.begin(), out.end());
    for (wire_t i = 0; i < net.width(); ++i) ASSERT_EQ(out[i], i);
  }
}

}  // namespace
}  // namespace shufflebound
