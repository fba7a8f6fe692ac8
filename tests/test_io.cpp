// Network serialization: text round-trips, parse errors, DOT export.
#include "core/io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "networks/batcher.hpp"
#include "networks/classic.hpp"
#include "networks/rdn_io.hpp"
#include "networks/shuffle.hpp"
#include "util/prng.hpp"

namespace shufflebound {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(SB_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CircuitText, RoundTripsBatcher) {
  for (const wire_t n : {2u, 8u, 16u}) {
    const auto net = bitonic_sorting_network(n);
    EXPECT_EQ(circuit_from_text(to_text(net)), net);
  }
}

TEST(CircuitText, RoundTripsAllGateKinds) {
  ComparatorNetwork net(6);
  net.add_level({Gate(0, 1, GateOp::CompareAsc), Gate(2, 3, GateOp::CompareDesc),
                 Gate(4, 5, GateOp::Exchange)});
  net.add_level(Level{});  // empty level must survive
  net.add_level({Gate(1, 4, GateOp::CompareDesc)});
  EXPECT_EQ(circuit_from_text(to_text(net)), net);
}

TEST(CircuitText, ParsesHandWrittenInput) {
  const auto net = circuit_from_text(R"(
    # a tiny sorter
    circuit 2
    level 0+1
    end
  )");
  EXPECT_EQ(net.width(), 2u);
  EXPECT_EQ(net.depth(), 1u);
  EXPECT_EQ(net.level(0).gates[0], Gate(0, 1, GateOp::CompareAsc));
}

TEST(CircuitText, ParseErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text, const char* fragment) {
    try {
      circuit_from_text(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("circuit 4\nlevel 0+1\n", "missing 'end'");
  expect_error("circuit 4\nbogus\nend\n", "expected 'level' or 'end'");
  expect_error("circuit 4\nlevel 0?1\nend\n", "malformed gate");
  expect_error("circuit 4\nlevel 0+9\nend\n", "out of range");
  expect_error("nonsense 4\nend\n", "expected 'circuit <width>'");
}

// The malformed-fixture corpus (shared with test_lint), plus inline texts
// for the errors the scanner or the model builders raise: the strict
// parser of the declared model must reject each text and point at the
// exact 1-based source line.
TEST(CircuitText, FixtureParseErrorsPointAtTheRightLine) {
  constexpr auto kCircuit = SourceModel::Circuit;
  constexpr auto kRegister = SourceModel::Register;
  constexpr auto kIterated = SourceModel::Iterated;
  const struct {
    const char* file;  // a fixture, or the name of an inline text
    const char* line_tag;
    SourceModel model;
    const char* text = nullptr;  // inline text instead of the fixture
  } cases[] = {
      {"bad_wire_index.txt", "network text line 4", kCircuit},
      {"level_conflict.txt", "network text line 3", kCircuit},
      {"gate_self_loop.txt", "network text line 4", kCircuit},
      {"truncated.txt", "network text line 4", kCircuit},  // last content line
      {"iterated_bad_wire.txt", "iterated network text line 7", kIterated},
      // A stage that is no RDN is numbered by its first level line.
      {"iterated_nonconforming.txt", "iterated network text line 7",
       kIterated},
      {"short stage permutation", "iterated network text line 2", kIterated,
       "iterated 4\nstage perm 0 1 2\ntree 0 1 2 3\nlevel 0+1 2+3\n"
       "level 0+2 1+3\nendstage\nend\n"},
      {"stage without tree", "iterated network text line 2", kIterated,
       "iterated 4\nstage perm identity\nlevel 0+1 2+3\nlevel 0+2 1+3\n"
       "endstage\nend\n"},
      {"end inside a stage", "iterated network text line 6", kIterated,
       "iterated 4\nstage perm identity\ntree 0 1 2 3\nlevel 0+1 2+3\n"
       "level 0+2 1+3\nend\n"},
      {"no final end", "iterated network text line 6", kIterated,
       "iterated 4\nstage perm identity\ntree 0 1 2 3\nlevel 0+1 2+3\n"
       "level 0+2 1+3\nendstage\n"},
      {"stray line inside a stage", "iterated network text line 5",
       kIterated,
       "iterated 4\nstage perm identity\ntree 0 1 2 3\nlevel 0+1 2+3\n"
       "bogus\nlevel 0+2 1+3\nendstage\nend\n"},
      {"bare stage", "iterated network text line 2", kIterated,
       "iterated 4\nstage\ntree 0 1 2 3\nlevel 0+1 2+3\nlevel 0+2 1+3\n"
       "endstage\nend\n"},
      {"iterated width 6", "iterated network text line 1", kIterated,
       "iterated 6\nstage perm identity\ntree 0 1 2 3 4 5\nendstage\nend\n"},
      {"register width 3", "network text line 1", kRegister,
       "register 3\nend\n"},
      {"circuit width 0",
       "network text line 1: declared width 0 is not a positive wire count",
       kCircuit, "circuit 0\nend\n"},
  };
  for (const auto& c : cases) {
    const std::string text = c.text != nullptr ? c.text : fixture(c.file);
    try {
      if (c.model == kIterated) {
        iterated_from_text(text);
      } else if (c.model == kRegister) {
        register_from_text(text);
      } else {
        circuit_from_text(text);
      }
      FAIL() << c.file << " parsed unexpectedly";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.line_tag), std::string::npos)
          << c.file << ": " << e.what();
    }
  }
}

// depth_mismatch.txt is the one corpus file the strict parsers accept -
// its defect lives in a lint directive the parsers deliberately ignore.
TEST(CircuitText, DepthMismatchFixtureStillParses) {
  const auto net = circuit_from_text(fixture("depth_mismatch.txt"));
  EXPECT_EQ(net.width(), 4u);
  EXPECT_EQ(net.depth(), 2u);
}

TEST(RegisterText, FixtureParseErrorPointsAtTheRightLine) {
  try {
    register_from_text(fixture("register_short_ops.txt"));
    FAIL() << "register_short_ops.txt parsed unexpectedly";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("network text line 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(RegisterText, RoundTripsShuffleNetwork) {
  Prng rng(1);
  const auto net = random_shuffle_network(16, 6, rng, {20, 10});
  const auto parsed = register_from_text(to_text(net));
  ASSERT_EQ(parsed.depth(), net.depth());
  for (std::size_t s = 0; s < net.depth(); ++s) {
    EXPECT_EQ(parsed.step(s).perm, net.step(s).perm);
    EXPECT_EQ(parsed.step(s).ops, net.step(s).ops);
  }
}

TEST(RegisterText, ShuffleStepsUseShorthand) {
  Prng rng(2);
  const auto net = random_shuffle_network(8, 2, rng);
  const std::string text = to_text(net);
  EXPECT_NE(text.find("step shuffle ; ops"), std::string::npos);
}

TEST(RegisterText, GeneralPermutationsSpelledOut) {
  RegisterNetwork net(4);
  net.add_step({Permutation({2, 3, 0, 1}),
                {GateOp::CompareAsc, GateOp::Passthrough}});
  const std::string text = to_text(net);
  EXPECT_NE(text.find("step perm 2 3 0 1 ; ops +0"), std::string::npos);
  const auto parsed = register_from_text(text);
  EXPECT_EQ(parsed.step(0).perm, net.step(0).perm);
  EXPECT_EQ(parsed.step(0).ops, net.step(0).ops);
}

TEST(RegisterText, ParseErrors) {
  EXPECT_THROW(register_from_text("register 4\nstep shuffle ; ops +++\nend\n"),
               std::invalid_argument);  // wrong ops arity
  EXPECT_THROW(register_from_text("register 4\nstep waffle ; ops ++\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(register_from_text("circuit 4\nend\n"), std::invalid_argument);
}

TEST(RegisterText, ParsedNetworkComputesSameFunction) {
  Prng rng(3);
  const auto net = random_shuffle_network(16, 8, rng, {10, 10});
  const auto parsed = register_from_text(to_text(net));
  const auto input = random_permutation(16, rng);
  EXPECT_EQ(net.evaluate(std::vector<wire_t>(input.image().begin(),
                                             input.image().end())),
            parsed.evaluate(std::vector<wire_t>(input.image().begin(),
                                                input.image().end())));
}

TEST(Dot, ContainsWiresAndGates) {
  ComparatorNetwork net(2);
  net.add_level({Gate(0, 1, GateOp::CompareAsc)});
  const std::string dot = to_dot(net);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("w0_0"), std::string::npos);
  EXPECT_NE(dot.find("w0_1 -> w1_1"), std::string::npos);
}

TEST(Dot, MarksDescendingAndExchangeGates) {
  ComparatorNetwork net(4);
  net.add_level({Gate(0, 1, GateOp::CompareDesc), Gate(2, 3, GateOp::Exchange)});
  const std::string dot = to_dot(net);
  EXPECT_NE(dot.find("arrowhead=inv"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace shufflebound
