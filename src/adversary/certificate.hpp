// Non-sortedness certificates, in two interchangeable text formats.
//
// v1 - a small self-contained artifact (kept for n up to a few hundred
// and for backward compatibility; every v1 certificate ever issued still
// parses):
//
//   nonsorting-certificate
//   n <width>
//   pattern <symbols...>
//   survivors <wires...>
//   pi <values...>
//   pi_prime <values...>
//   w0 <wire> w1 <wire> m <value>
//   end
//
// v2 - the chunked/compressed streaming format that keeps witnesses for
// shuffle-based networks at n = 2^10..2^16 tractable to store, replay
// through the disk cache tier, and diff in CI:
//
//   nonsorting-certificate-v2
//   n <width>
//   chunk <seq> <raw-byte-len> <crc32-hex>
//   <base64 payload>
//   ...
//   end chunks <count> crc <crc32-hex>
//
// The concatenated chunk payloads form one binary body: the pattern
// run-length encoded, the survivor list, the witness triple (w0, w1, m),
// and pi as LEB128 varints. pi' is NOT stored - it is pi with the values
// at w0/w1 swapped by construction, so the reader re-derives it, halving
// the dominant section. Every chunk carries its own CRC-32 and sequence
// number; the trailer carries the chunk count and a whole-body CRC.
// Parsing is fail-closed: truncation, corruption, reordering, length
// mismatch, or trailing garbage all throw - a damaged certificate is
// rejected, never partially believed (mirroring the disk cache's
// integrity model; both use util/crc32.hpp).
//
// Both formats are produced from an adversary run and re-checkable by
// anyone holding the network, without trusting the adversary:
// verify_certificate replays both inputs through the network with a
// comparison recorder and accepts iff the Corollary 4.1.1 conditions hold
// (values m, m+1 never compared; identical permutation applied) and the
// inputs refine the pattern.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "adversary/theorem41.hpp"
#include "adversary/witness.hpp"

namespace shufflebound {

struct Certificate {
  wire_t n = 0;
  InputPattern pattern;
  std::vector<wire_t> survivors;
  Witness witness;
};

/// Builds a certificate from an adversary result (needs >= 2 survivors).
std::optional<Certificate> make_certificate(const AdversaryResult& result);

/// v1 flat text.
std::string to_text(const Certificate& cert);

/// v2 chunked text. `chunk_bytes` is the raw (pre-base64) payload size
/// per chunk. Requires the canonical witness shape (pi' = pi with the
/// values at w0/w1 swapped, pi(w0) = m, pi(w1) = m+1 - what every
/// adversary-produced certificate has); throws invalid_argument
/// otherwise, since v2 does not store pi'.
std::string to_chunked_text(const Certificate& cert,
                            std::size_t chunk_bytes = 3072);

/// The one choice of writer, by width alone: v2 chunked text for n >= 512
/// (~2x smaller there, CRC per chunk), v1 flat text below.
std::string certificate_text(const Certificate& cert);

/// Does the text carry the v2 chunked header?
bool is_chunked_certificate_text(const std::string& text);

/// Parses either format (the header line selects). Throws
/// std::invalid_argument on any damage - see the fail-closed contract
/// above.
Certificate certificate_from_text(const std::string& text);

struct CertificateVerdict {
  bool well_formed = false;       // inputs refine the pattern, pair adjacent
  WitnessCheck witness_check;     // replay results
  bool accepted() const {
    return well_formed && witness_check.refutes_sorting();
  }
};

CertificateVerdict verify_certificate(const ComparatorNetwork& net,
                                      const Certificate& cert);
CertificateVerdict verify_certificate(const RegisterNetwork& net,
                                      const Certificate& cert);

}  // namespace shufflebound
