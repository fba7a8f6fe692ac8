// Serialization of comparator networks.
//
// Text format (one construct per line, '#' comments, whitespace-tolerant):
//
//   circuit <width>            |  register <width>
//   level <a><op><b> ...       |  step perm <p0> <p1> ... ; ops <sym>*
//   ...                        |  ...
//   end                        |  end
//
// where <a><op><b> is e.g. "3+7" (min of wires 3,7 to wire 3), "3-7"
// (max to 3), "3x7" (exchange); register ops are a string over
// {+,-,0,1}, one symbol per register pair. A step whose permutation is
// the shuffle may be written "step shuffle ; ops <sym>*". Numbers are
// unsigned decimal digits. Every network text is read by the one scanner
// of core/source.hpp; the parsers here throw its first issue, then build
// from its record.
//
// Also provides Graphviz DOT export of circuits (wires as horizontal
// rails, gates as labeled verticals) for inspection.
#pragma once

#include <iosfwd>
#include <string>

#include "core/comparator_network.hpp"
#include "core/register_network.hpp"
#include "core/source.hpp"

namespace shufflebound {

/// Widest network any text parser accepts (circuit, register and, in
/// networks/rdn_io.hpp, iterated). The scanner checks it at the header
/// line, before any width-sized allocation, so a hostile header is
/// rejected (std::invalid_argument, or a width-invalid lint error) instead
/// of exhausting memory. Far above every width the engines and
/// experiments use (the largest is 2^16).
inline constexpr wire_t kMaxTextWidth = wire_t{1} << 20;

std::string to_text(const ComparatorNetwork& net);
std::string to_text(const RegisterNetwork& net);
/// One "level <a><op><b> ..." line (no newline), shared by two formats.
std::string to_text(const Level& level);

/// Parses one format back. Throws std::invalid_argument on malformed
/// input: "network text line N: " and the scanner's first issue, or the
/// model's own error numbered by the line that caused it ("network text:
/// empty input" carries no line). The *_from_source forms build from an
/// already-scanned text.
ComparatorNetwork circuit_from_text(const std::string& text);
RegisterNetwork register_from_text(const std::string& text);
ComparatorNetwork circuit_from_source(const NetworkSource& src);
RegisterNetwork register_from_source(const NetworkSource& src);

/// Graphviz DOT rendering of a circuit.
std::string to_dot(const ComparatorNetwork& net);

}  // namespace shufflebound
