// The network linter: rule-based static analysis over network source
// text, in any of the three models (circuit / register / iterated RDN).
//
// The adversary of Lemma 4.1 / Theorem 4.1 assumes its input is a
// well-formed iterated reverse delta network as defined in Section 2 of
// the paper; certify assumes a well-formed circuit. The linter checks
// those invariants statically and reports *every* violation with a
// stable rule id, a location and a fix hint - one pass, no exceptions,
// so fleets of candidate specs can be screened before expensive
// certify / refute jobs (the `lint` job kind of the batch engine).
//
// Rule catalog, severities and the JSON diagnostic schema are documented
// in docs/lint.md. Severity policy:
//   error   - the spec is malformed or violates a defined invariant of
//             its declared model; downstream analyses would throw or be
//             meaningless.
//   warning - evaluable but suspicious (orientation that silently flips,
//             redundant gates, untouched wires, out-of-scope steps).
//   info    - observations (empty levels, RDN recognition) that carry no
//             judgment.
#pragma once

#include <string>

#include "lint/diagnostic.hpp"

namespace shufflebound {

/// Lints network source text: the rule pass over the shared scan
/// (core/source.hpp), whose syntax findings lead the report. Never
/// throws: malformed input yields diagnostics, not exceptions.
LintReport lint_network_text(const std::string& text);

}  // namespace shufflebound
