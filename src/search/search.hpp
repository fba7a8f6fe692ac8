// Depth-optimal sorting-network search.
//
// Two modes share one state domain (the 0-1 output set, search/
// output_set.hpp), one level space (search/level_space.hpp), and one
// symmetry-broken two-layer prefix front (search/prefix.hpp):
//
//  * Exhaustive (n <= kExhaustiveSearchWidthCap): breadth-first
//    generate-and-prune over canonical prefixes with output-set
//    subsumption. The frontier at depth d is a complete-up-to-
//    subsumption set of depth-d prefixes, so the FIRST depth at which
//    any state is accepted IS the optimal depth - the result carries
//    LowerBoundSource::Exhaustive.
//
//  * Existence (wider n, up to kSearchWidthCap): a widening beam BFS
//    at the published optimal depth (Parberry 1991 for n = 9, 10;
//    Bundala & Zavodny 2014 for n = 11-13). Finding a network at that
//    depth reproduces the optimum; the matching lower bound is cited,
//    not recomputed (LowerBoundSource::Published) - exhaustively
//    refuting depth 6 for n = 9 is SAT-solver territory, far outside a
//    test budget.
//
// Every returned network is independently certified through the
// simulator ladder (zero_one_check_up_to_relabel, then the hybrid
// analyze/frontier/sweep dispatcher on the relabel-conjugated network);
// a witness that fails certification is a bug and throws. Searches are
// deterministic: serial and parallel runs return the identical witness
// network and identical statistics. Long runs can checkpoint to a
// CRC-guarded state file and resume (search/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/comparator_network.hpp"
#include "search/level_space.hpp"
#include "util/thread_pool.hpp"

namespace shufflebound {

/// Widest width searched exhaustively by SearchMode::Auto. Beyond it
/// the complete-up-to-subsumption frontier outgrows test budgets and
/// Auto switches to existence mode.
inline constexpr wire_t kExhaustiveSearchWidthCap = 8;

/// Published optimal depths for n <= 12 (Knuth TAOCP vol. 3 for
/// n <= 8; Parberry 1991 for 9-10; Bundala & Zavodny 2014 for 11-12).
/// nullopt above the table.
std::optional<std::size_t> published_optimal_depth(wire_t n);

enum class SearchMode : std::uint8_t {
  Auto,        // Exhaustive iff n <= kExhaustiveSearchWidthCap
  Exhaustive,  // force the BFS (any n <= kSearchWidthCap; slow past 8)
  Existence,   // force the beam BFS at the published depth
};

enum class SearchStatus : std::uint8_t {
  Optimal,    // witness found and certified; optimal_depth is set
  Paused,     // pause_after_nodes hit; checkpoint written if a path set
  Exhausted,  // search space/depth budget exhausted without a witness
};

/// How the reported depth is known to be optimal.
enum class LowerBoundSource : std::uint8_t {
  Exhaustive,  // this run proved no shallower network exists
  Published,   // matching lower bound cited from the literature
};

const char* search_mode_name(SearchMode mode) noexcept;
std::optional<SearchMode> parse_search_mode(std::string_view name);
const char* search_status_name(SearchStatus status) noexcept;
const char* lower_bound_source_name(LowerBoundSource source) noexcept;

/// Counters exposed per run (and persisted in checkpoints, so a resumed
/// run reports totals across its whole life).
struct SearchStats {
  std::uint64_t nodes_expanded = 0;       // states whose children were built
  std::uint64_t children_generated = 0;   // child states materialized
  std::uint64_t useless_filtered = 0;     // matchings with a no-op comparator
  std::uint64_t stall_skips = 0;          // children identical to the parent
  std::uint64_t dedup_hits = 0;           // exact duplicate states merged
  std::uint64_t subsumption_hits = 0;     // states dropped as supersets
  std::uint64_t dominance_checks = 0;     // exact subset tests past the
                                          // class-signature gate
  std::uint64_t countdown_prunes = 0;     // weight-class countdown cutoffs
  std::uint64_t prefixes = 0;             // canonical two-layer prefixes
  std::uint64_t relabel_duplicates = 0;   // prefixes equal mod relabeling
  std::uint64_t relabel_subsumed = 0;     // prefixes dropped by permuted subset
  std::uint64_t leaf_certifications = 0;  // simulator-ladder witness checks
  std::uint64_t checkpoint_writes = 0;

  /// Fraction of generated-or-attempted children removed by any filter.
  double pruning_ratio() const noexcept;
};

struct SearchOptions {
  SearchMode mode = SearchMode::Auto;
  /// Exhaustive mode gives up past this depth (safety net; the optimum
  /// for every supported width is well below it). Existence mode fails
  /// fast if the published target exceeds it.
  std::size_t max_depth = 16;
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation/deadline hook, called once per expanded
  /// node and by the witness certification's sweeps - concurrently from
  /// pool workers when a pool is set, so it must be thread-safe (same
  /// contract as CertifyOptions::progress).
  /// Exceptions propagate and abort the search.
  std::function<void()> progress;
  /// When non-empty, the search writes a resumable checkpoint here at
  /// every BFS level boundary (both modes).
  std::string checkpoint_path;
  /// Resume from checkpoint_path if the file exists (a missing file
  /// starts fresh; a corrupt or mismatched one throws).
  bool resume = false;
  /// When > 0: pause (status Paused, checkpoint written) at the first
  /// level boundary where nodes_expanded reaches this count.
  std::uint64_t pause_after_nodes = 0;
  /// Exhaustive mode: hard cap on per-level candidate states; exceeding
  /// it throws std::runtime_error rather than thrashing.
  std::size_t state_budget = std::size_t{1} << 22;
  /// Each new state is checked for subsumption against at most this
  /// many smaller survivors, newest first (0 = all). Windowing only
  /// weakens pruning, never correctness.
  std::size_t subsumption_window = 4096;
};

struct SearchResult {
  SearchStatus status = SearchStatus::Exhausted;
  wire_t width = 0;
  SearchMode mode = SearchMode::Auto;  // the mode actually run
  std::size_t optimal_depth = 0;       // valid iff status == Optimal
  LowerBoundSource lower_bound_source = LowerBoundSource::Exhaustive;
  /// The certified witness (strictly sorting, already relabel-
  /// conjugated); empty unless status == Optimal.
  ComparatorNetwork network;
  SearchStats stats;
  bool resumed = false;  // continued from a checkpoint file
};

/// Finds a depth-optimal sorting network on n wires. Throws
/// std::invalid_argument for n outside [1, kSearchWidthCap] and
/// std::runtime_error on budget violations, corrupt checkpoints, or a
/// witness that fails certification.
SearchResult find_min_depth_network(wire_t n, const SearchOptions& options = {});

}  // namespace shufflebound
