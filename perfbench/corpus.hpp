// Seeded corpus generation and the answer checker.
//
// Every input the system under test receives is built here from the
// workload seed: a Recipe names a network family, a width and a per-job
// seed, and build() turns it into the network object; the request line
// carries only the network's text. Expected answers come from the
// construction itself (a sorter with a provably redundant comparator
// sorts; a network below the refuted depth curve is refuted) or are
// pinned with the scalar reference evaluator of core/bitparallel, never
// from the program under test. Checking happens outside the timed region.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "networks/rdn.hpp"
#include "service/job.hpp"
#include "service/json.hpp"
#include "util/prng.hpp"

namespace perfbench {

using shufflebound::ComparatorNetwork;
using shufflebound::IteratedRdn;
using shufflebound::JobKind;
using shufflebound::JsonValue;
using shufflebound::Prng;
using shufflebound::RegisterNetwork;
using shufflebound::wire_t;

enum class Family : std::uint8_t {
  Bitonic,        // Batcher bitonic sorter (n = 2^k)
  Oem,            // Batcher odd-even merge sort (n = 2^k)
  Brick,          // odd-even transposition sorter
  BitonicPruned,  // all-ascending bitonic sorter on 32 wires cut to n
  OemPruned,      // odd-even merge sort on 32 wires cut to n
  Shuffle,        // random shuffle-based register network
  Butterfly,      // iterated butterfly RDN with random stage permutations
};

/// How a sorter base is modified to make the job's network unique.
enum class Mod : std::uint8_t {
  RedundantTail,  // ascending comparator(s) appended: still sorts
  Remove,         // one comparator dropped
  Insert,         // one ascending comparator inserted as a new middle level
};

/// A network, reproducible from the workload seed alone.
struct Recipe {
  Family family = Family::Bitonic;
  wire_t n = 0;
  std::uint32_t depth = 0;  // Shuffle: levels; Butterfly: butterfly stages
  wire_t offset = 0;        // pruned sorters: the first of the n wires kept
  Mod mod = Mod::RedundantTail;
  // Sorter mods: the comparator (a < b) inserted before `level`, or
  // appended 1 + `level` times as a redundant tail; for Remove, `a` is the
  // index of the dropped comparator.
  wire_t a = 0;
  wire_t b = 0;
  std::size_t level = 0;
  std::uint64_t seed = 0;  // Shuffle / Butterfly: the network's own draw
};

using Network = std::variant<ComparatorNetwork, RegisterNetwork, IteratedRdn>;

/// Width of the sorter the pruned families are cut from.
inline constexpr wire_t kPrunedWidth = 32;

/// The unmodified sorter of a sorter family; a pruned one keeps the
/// kPrunedWidth-wire sorter's wires [offset, offset + n).
ComparatorNetwork base_sorter(Family family, wire_t n, wire_t offset = 0);

Network build(const Recipe& recipe);
std::string text_of(const Network& net);
/// A network as the checker evaluates it: the flattened circuit and the
/// order its outputs are read in. Output position p is circuit wire
/// order[p]; an empty order is wire order, as for a plain circuit.
struct Circuit {
  Circuit(ComparatorNetwork circuit) : net(std::move(circuit)) {}  // NOLINT: implicit
  ComparatorNetwork net;
  std::vector<wire_t> order;
};

/// The flattened circuit of any model, with the register order a register
/// or iterated network's outputs are read in.
Circuit circuit_of(const Network& net);

/// A JSONL request line for the batch engine / server wire.
std::string request_line(const std::string& id, JobKind kind,
                         const std::string& network_text,
                         std::uint64_t trials = 0, std::uint64_t seed = 0);

// ----------------------------------------------------- reference answers --

/// Minimal failing 0/1 vector by the scalar reference evaluator
/// (core/bitparallel), or nullopt when every input vector below `limit`
/// (all 2^n of them by default) is sorted. Bit w of a vector is the input
/// on circuit wire w (= register w of a register network).
std::optional<std::uint64_t> reference_failing_vector(
    const Circuit& net, std::uint64_t limit = ~std::uint64_t{0});

/// Reference relabel check: the ranks when every 0/1 weight class maps to
/// one output and the outputs form a nested chain, else nullopt.
std::optional<std::vector<wire_t>> reference_relabel_ranks(const Circuit& net);

/// True when two 0/1 inputs of equal weight below `limit` reach different
/// outputs: the relabel check fails within the first `limit` vectors.
bool reference_relabel_diverges(const Circuit& net, std::uint64_t limit);

/// Sorted-trial count of count-sorted, recomputed with the circuit's own
/// value evaluator and the engine's documented per-trial seed derivation.
std::uint64_t reference_count_sorted(const Circuit& net, std::uint64_t trials,
                                     std::uint64_t seed);

// --------------------------------------------------------------- checks --

/// What a checker concluded about one answer; empty = correct.
using Verdict = std::optional<std::string>;

/// certify: `expected_failing` is the pinned minimal failing vector
/// (nullopt = the network sorts).
Verdict check_certify(const JsonValue& payload, const Circuit& net,
                      const std::optional<std::uint64_t>& expected_failing);

/// refute: must be refuted, and the certificate must pass
/// verify_certificate against the network as built. With `no_claim_ok` a
/// "no-claim" answer (the adversary ended with too few survivors) is
/// accepted too: it asserts nothing.
Verdict check_refute(const JsonValue& payload, const Network& net, bool no_claim_ok = false);

}  // namespace perfbench
