// Serialization of iterated reverse delta networks, including the
// recursion trees (the part a bare circuit file cannot carry). Format:
//
//   iterated <width>
//   stage perm identity            |  stage perm <p0> <p1> ...
//   tree <leaf order...>           #  RdnTree::from_order
//   level <a><op><b> ...           #  one per chunk level, as in io.hpp
//   ...
//   endstage
//   ...
//   end
//
// Read by the scanner shared with every network format (core/source.hpp).
//
// Refuting a general iterated RDN (arbitrary trees, non-identity
// inter-chunk permutations) from disk goes through this format; the
// shuffle-based and recognizable-circuit cases keep their simpler files.
#pragma once

#include <string>

#include "core/source.hpp"
#include "networks/rdn.hpp"

namespace shufflebound {

std::string to_text(const IteratedRdn& net);
IteratedRdn iterated_from_text(const std::string& text);
IteratedRdn iterated_from_source(const NetworkSource& src);

}  // namespace shufflebound
