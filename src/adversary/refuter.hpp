// One-call refutation: the highest-level entry point of the library.
//
// Given a network in either model, refute() decides how the paper's
// machinery applies:
//   * a shuffle-based register network is chunked into lg n-step reverse
//     delta networks (shuffle_to_iterated_rdn);
//   * a circuit of depth lg n on 2^{lg n} wires is fed to the RDN
//     recognizer; deeper circuits are tried as consecutive lg n-level
//     slices, each recognized independently (arbitrary permutations
//     between slices are free in the model, so slicing loses nothing);
//   * anything else is out of the bound's scope.
// On success the result carries a self-verifying certificate.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "adversary/certificate.hpp"

namespace shufflebound {

enum class RefutationStatus : std::uint8_t {
  Refuted,            // certificate produced and self-verified
  TooFewSurvivors,    // adversary ran but ended with < 2 survivors
  NotInScope,         // network not expressible as an iterated RDN
};

struct RefutationResult {
  RefutationStatus status = RefutationStatus::NotInScope;
  std::optional<Certificate> certificate;
  /// Refuted only: the network's outputs on the certificate's pi and pi',
  /// in output order, from the self-verifying replay - what the model's
  /// own evaluate() returns for them.
  std::vector<wire_t> output_pi;
  std::vector<wire_t> output_pi_prime;
  AdversaryResult adversary;   // populated unless NotInScope
  std::string detail;          // human-readable scope/bounds note
};

/// Knobs shared by every refute() overload.
struct RefuteOptions {
  /// k = 0 picks the paper's k = lg n.
  std::uint32_t k = 0;
  /// Cooperative-cancellation hook: invoked at every RDN level and before
  /// the witness replay, on the calling thread. Throw from it to abort;
  /// the exception propagates to the refute() caller.
  std::function<void()> progress;
};

/// Refutes a shuffle-based register network. Throws only on malformed
/// networks (width not a power of two); a non-shuffle-based network
/// yields NotInScope.
RefutationResult refute(const RegisterNetwork& net, std::uint32_t k = 0);
RefutationResult refute(const RegisterNetwork& net,
                        const RefuteOptions& options);

/// Refutes a circuit by slicing into lg n-level chunks and recognizing
/// each as a reverse delta network.
RefutationResult refute(const ComparatorNetwork& net, std::uint32_t k = 0);
RefutationResult refute(const ComparatorNetwork& net,
                        const RefuteOptions& options);

/// Refutes an iterated RDN directly.
RefutationResult refute(const IteratedRdn& net, std::uint32_t k = 0);
RefutationResult refute(const IteratedRdn& net, const RefuteOptions& options);

}  // namespace shufflebound
