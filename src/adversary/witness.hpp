// Witness extraction and machine-checked refutation (Corollary 4.1.1).
//
// From an adversary run with >= 2 survivors, build the two concrete
// inputs of the corollary: pi refines the final pattern with survivors
// w0, w1 carrying adjacent values m and m+1, and pi' swaps those two
// values. Because {w0, w1} is noncolliding, the network compares the same
// value pairs on both inputs and applies the same permutation, so it maps
// pi and pi' to outputs that differ exactly where m and m+1 sit - it
// cannot sort both. check_witness verifies all of this by instrumented
// simulation, making the lower-bound certificate independent of the
// adversary's own bookkeeping.
#pragma once

#include <functional>
#include <optional>
#include <span>

#include "adversary/theorem41.hpp"
#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "networks/rdn.hpp"
#include "perm/permutation.hpp"
#include "sim/compiled_net.hpp"

namespace shufflebound {

class ThreadPool;

struct Witness {
  Permutation pi;        // input refining the adversary's pattern
  Permutation pi_prime;  // pi with values m and m+1 swapped
  wire_t w0 = 0;         // pi(w0) = m
  wire_t w1 = 0;         // pi(w1) = m + 1
  wire_t m = 0;
};

/// Builds the corollary's input pair; nullopt if fewer than 2 survivors.
std::optional<Witness> extract_witness(const AdversaryResult& result);

/// All (survivor choose 2) witness pairs, capped at `limit`: with s
/// survivors the adversary certifies not one but Theta(s^2) independent
/// counterexample input pairs - the "refutation density" reported in E5.
/// `pool` builds the witnesses (each an O(n log n) linearize) in
/// parallel, writing by pair index, so the output order - and every byte
/// of every witness - matches the serial path exactly.
std::vector<Witness> enumerate_witnesses(const AdversaryResult& result,
                                         std::size_t limit = 64,
                                         ThreadPool* pool = nullptr);

struct WitnessCheck {
  /// Values m and m+1 were never compared, on either input (Def. 3.6).
  bool never_compared = false;
  /// The network applied the identical wire permutation to both inputs:
  /// outputs agree after swapping m and m+1 back.
  bool same_permutation = false;

  /// The pair (pi, pi') proves the network is not a sorting network.
  bool refutes_sorting() const { return never_compared && same_permutation; }
};

WitnessCheck check_witness(const ComparatorNetwork& net, const Witness& w);
WitnessCheck check_witness(const RegisterNetwork& net, const Witness& w);
WitnessCheck check_witness(const IteratedRdn& net, const Witness& w);

/// A compiled-kernel replay: the verdict and the two outputs it was
/// judged on, in output order (position p = wire p of a circuit, register
/// p of a register network, final slot p of an iterated RDN) - what the
/// source model's own evaluate() returns for pi and pi'.
struct WitnessReplay {
  WitnessCheck check;
  std::vector<wire_t> output_pi;
  std::vector<wire_t> output_pi_prime;
};

/// Same verdict via the compiled kernel (sim/compiled_net.hpp): compiling
/// elides exchanges and permutations but preserves the multiset of value
/// pairs that meet at comparators, so the recorder sees the same
/// comparisons and the replay reaches the same refutation verdict. Lets a
/// caller amortize one compile() across many witnesses of the same net.
/// A witness whose pi or pi' is not of the network's width is not run:
/// its check refutes nothing and its outputs are empty.
WitnessReplay replay_witness(const CompiledNetwork& net, const Witness& w);

/// replay_witness's verdict alone.
WitnessCheck check_witness(const CompiledNetwork& net, const Witness& w);

/// Replays a batch of witnesses against one compiled network, in parallel
/// over `pool` when provided (nullptr = serial). Verdicts are written by
/// index, so the result order matches the input order at any concurrency.
/// `progress` (may be empty) is invoked once per witness on the calling
/// thread before the batch fans out - the cooperative-deadline hook.
std::vector<WitnessCheck> check_witnesses(
    const CompiledNetwork& net, std::span<const Witness> witnesses,
    ThreadPool* pool = nullptr, const std::function<void()>& progress = {});

}  // namespace shufflebound
