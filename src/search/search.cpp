#include "search/search.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "search/checkpoint.hpp"
#include "search/output_set.hpp"
#include "search/prefix.hpp"
#include "sim/bitparallel.hpp"

namespace shufflebound {

std::optional<std::size_t> published_optimal_depth(wire_t n) {
  // Knuth TAOCP vol. 3 (n <= 8), Parberry 1991 (9-10), Bundala &
  // Zavodny 2014 (11-12).
  static constexpr std::array<std::size_t, 12> kTable = {0, 1, 3, 3, 5, 5,
                                                         6, 6, 7, 7, 8, 8};
  if (n == 0 || n > kTable.size()) return std::nullopt;
  return kTable[n - 1];
}

const char* search_mode_name(SearchMode mode) noexcept {
  switch (mode) {
    case SearchMode::Auto: return "auto";
    case SearchMode::Exhaustive: return "exhaustive";
    case SearchMode::Existence: return "existence";
  }
  return "?";
}

std::optional<SearchMode> parse_search_mode(std::string_view name) {
  if (name == "auto") return SearchMode::Auto;
  if (name == "exhaustive") return SearchMode::Exhaustive;
  if (name == "existence") return SearchMode::Existence;
  return std::nullopt;
}

const char* search_status_name(SearchStatus status) noexcept {
  switch (status) {
    case SearchStatus::Optimal: return "optimal";
    case SearchStatus::Paused: return "paused";
    case SearchStatus::Exhausted: return "exhausted";
  }
  return "?";
}

const char* lower_bound_source_name(LowerBoundSource source) noexcept {
  switch (source) {
    case LowerBoundSource::Exhaustive: return "exhaustive";
    case LowerBoundSource::Published: return "published";
  }
  return "?";
}

double SearchStats::pruning_ratio() const noexcept {
  const std::uint64_t pruned = useless_filtered + stall_skips + dedup_hits +
                               subsumption_hits + countdown_prunes;
  const std::uint64_t denom = pruned + children_generated;
  return denom == 0 ? 0.0 : double(pruned) / double(denom);
}

namespace {

// Slot 8 is unused: written as 0 and ignored on read, so the checkpoint
// format and existing files stay valid.
std::array<std::uint64_t, 16> stats_to_array(const SearchStats& s) {
  return {s.nodes_expanded,    s.children_generated, s.useless_filtered,
          s.stall_skips,       s.dedup_hits,         s.subsumption_hits,
          s.dominance_checks,  s.countdown_prunes,   0,
          s.prefixes,          s.relabel_duplicates, s.relabel_subsumed,
          s.leaf_certifications, s.checkpoint_writes, 0, 0};
}

SearchStats stats_from_array(const std::array<std::uint64_t, 16>& a) {
  SearchStats s;
  s.nodes_expanded = a[0];
  s.children_generated = a[1];
  s.useless_filtered = a[2];
  s.stall_skips = a[3];
  s.dedup_hits = a[4];
  s.subsumption_hits = a[5];
  s.dominance_checks = a[6];
  s.countdown_prunes = a[7];
  s.prefixes = a[9];
  s.relabel_duplicates = a[10];
  s.relabel_subsumed = a[11];
  s.leaf_certifications = a[12];
  s.checkpoint_writes = a[13];
  return s;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// A frontier state together with the matching ids that built it.
struct FrontierNode {
  OutputSet state;
  std::vector<std::uint32_t> history;
};

ComparatorNetwork network_from_history(
    const LevelSpace& space, const std::vector<std::uint32_t>& history) {
  ComparatorNetwork net(space.width());
  for (std::uint32_t mi : history) {
    Level level;
    for (const auto& [lo, hi] : space.matchings()[mi].pairs)
      level.gates.emplace_back(lo, hi, GateOp::CompareAsc);
    net.add_level(std::move(level));
  }
  return net;
}

/// Certifies a found witness through the simulator ladder: the
/// relabel-tolerant sweep pins down the output rank permutation, the
/// network is conjugated by it into a strict sorter, and the hybrid
/// analyze/frontier/sweep dispatcher re-certifies the result. A failure
/// here means the search itself is buggy, so it throws.
ComparatorNetwork certify_witness(const ComparatorNetwork& net,
                                  const SearchOptions& options,
                                  SearchStats& stats) {
  const RelabelReport relabel =
      zero_one_check_up_to_relabel(net, options.pool, options.progress);
  ++stats.leaf_certifications;
  if (!relabel.sorts)
    throw std::runtime_error("search: witness failed relabel certification");
  ComparatorNetwork out = net;
  if (relabel.ranks.has_value() && !relabel.ranks->is_identity()) {
    const Permutation& ranks = *relabel.ranks;
    ComparatorNetwork conjugated(net.width());
    for (const Level& level : net.levels()) {
      Level mapped;
      for (const Gate& g : level.gates)
        mapped.gates.emplace_back(ranks[g.lo], ranks[g.hi], GateOp::CompareAsc);
      conjugated.add_level(std::move(mapped));
    }
    out = std::move(conjugated);
  }
  CertifyOptions copts;
  copts.pool = options.pool;
  copts.progress = options.progress;
  const ZeroOneReport report = zero_one_check(out, copts);
  ++stats.leaf_certifications;
  if (!report.sorts_all)
    throw std::runtime_error(
        "search: conjugated witness failed 0-1 certification");
  return out;
}

/// Per-weight-class populations clamped to 7 bits, zero past width n
/// (exact through n = 9, whose largest class has 126 members). Clamping
/// keeps componentwise <= a necessary condition for inclusion, and the
/// 7-bit lanes let signature_leq compare all 16 with borrow-free
/// subtraction on two words.
using ClassSig = std::array<std::uint8_t, 16>;
static_assert(kSearchWidthCap + 1 <= sizeof(ClassSig));
constexpr std::size_t kClassSigMax = 127;

/// One generated child during level expansion, before pruning.
struct Candidate {
  OutputSet state;
  std::uint32_t parent = 0;    // index into the previous frontier
  std::uint32_t matching = 0;  // matching id that produced it
  std::uint32_t count = 0;     // state.count()
  std::pair<std::uint64_t, std::uint64_t> hash{0, 0};
  ClassSig class_sig{};
};

void fill_candidate_meta(const LevelSpace& space, Candidate& c) {
  c.count = std::uint32_t(c.state.count());
  c.hash = c.state.hash();
  std::array<std::size_t, kSearchWidthCap + 1> counts{};
  space.class_counts(
      c.state,
      std::span<std::size_t>(counts.data(), std::size_t(space.width()) + 1));
  for (std::size_t k = 0; k <= std::size_t(space.width()); ++k)
    c.class_sig[k] = std::uint8_t(std::min(counts[k], kClassSigMax));
}

/// a componentwise <= b - necessary for state_a ⊆ state_b. Each byte of
/// (b | 0x80) - a keeps its high bit iff b >= a, and never borrows from
/// its neighbour because a <= 127.
bool signature_leq(const ClassSig& a, const ClassSig& b) noexcept {
  constexpr std::uint64_t kHigh = 0x8080808080808080;
  std::array<std::uint64_t, 2> wa{};
  std::array<std::uint64_t, 2> wb{};
  std::memcpy(wa.data(), a.data(), sizeof(a));
  std::memcpy(wb.data(), b.data(), sizeof(b));
  return (((wb[0] | kHigh) - wa[0]) & ((wb[1] | kHigh) - wa[1]) & kHigh) ==
         kHigh;
}

void write_checkpoint_or_throw(const std::string& path,
                               const SearchCheckpoint& cp,
                               SearchStats& stats) {
  std::string error;
  if (!save_checkpoint(path, cp, &error))
    throw std::runtime_error("search: " + error);
  ++stats.checkpoint_writes;
}

// ---------------------------------------------------------------------------
// The BFS core, shared by both modes.
//
// Exhaustive mode runs it complete (beam_width = 0): the frontier is
// every depth-d prefix up to dedup and subsumption, so the first level
// with an accepted state is the optimal depth. Existence mode runs it
// as a beam (beam_width > 0, target_depth = the published optimum):
// each level keeps only the most-sorted survivors, trading completeness
// - which the cited lower bound already covers - for speed, and the
// countdown filter drops children that provably cannot finish within
// the remaining levels.
// ---------------------------------------------------------------------------

/// Frontier nodes expanded per parallel_for call; fixed (rather than
/// scaled to the pool) so serial and parallel runs take identical
/// decisions and report identical statistics.
constexpr std::size_t kExpandChunk = 256;

/// Beam mode: best children retained per expanded node (by output-set
/// size). Keeps the per-level candidate pool at beam * cap states
/// instead of beam * |matchings|.
constexpr std::size_t kBeamChildCap = 32;

/// Candidates per subsumption block; fixed (rather than scaled to the
/// pool) so serial and parallel runs run the same subset tests.
constexpr std::size_t kSubsumeBlock = 512;

/// One candidate's scan of a range of survivors.
struct WindowScan {
  std::size_t eligible = 0;  // survivors in the range smaller than it
  std::size_t hit = 0;  // 1-based eligible position of the first subsumer
                        // within the budget; 0 = none
  std::uint64_t subset_tests = 0;  // exact tests past the signature gate
};

/// A level's subsumption survivors, flattened in survivor order: the
/// state words, count and class signature of survivor i sit at index i
/// of contiguous arrays, so a scan streams memory. Survivors are pushed
/// in ascending count order (the pass walks count-sorted candidates).
class SurvivorWindow {
 public:
  explicit SurvivorWindow(std::size_t words) : words_(words) {}

  std::size_t size() const noexcept { return counts_.size(); }

  void push(const Candidate& c) {
    const auto w = c.state.words();
    state_words_.insert(state_words_.end(), w.begin(), w.end());
    counts_.push_back(c.count);
    sigs_.push_back(c.class_sig);
  }

  /// Tests the survivors in [begin, end) strictly smaller than `c`,
  /// newest first, at most `budget` of them, for a subset of c's state.
  WindowScan scan(const Candidate& c, std::size_t begin, std::size_t end,
                  std::size_t budget) const noexcept {
    // Counts ascend, so the smaller survivors are a prefix of the range.
    const auto counts = counts_.begin();
    const auto stop = std::size_t(
        std::lower_bound(counts + std::ptrdiff_t(begin),
                         counts + std::ptrdiff_t(end), c.count) -
        counts);
    WindowScan out;
    out.eligible = stop - begin;
    const std::uint64_t* own = c.state.words().data();
    const std::size_t tested = std::min(out.eligible, budget);
    // The subset words are tested whatever the gate says: it passes for
    // about half the pairs, too unpredictable to branch on.
    for (std::size_t i = 1; i <= tested; ++i) {
      const std::size_t s = stop - i;
      const bool gate = signature_leq(sigs_[s], c.class_sig);
      const std::uint64_t* theirs = state_words_.data() + s * words_;
      std::uint64_t stray = 0;
      for (std::size_t w = 0; w < words_; ++w) stray |= theirs[w] & ~own[w];
      out.subset_tests += gate;
      if (gate && stray == 0) {
        out.hit = i;
        break;
      }
    }
    return out;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> state_words_;  // size() * words_
  std::vector<std::uint32_t> counts_;
  std::vector<ClassSig> sigs_;
};

/// Output-set subsumption over `kept` (indices into `level`, ascending
/// count): a strictly smaller state completes at least as fast as any
/// superset, so each candidate is dropped if one of the first `window`
/// (0 = all) smaller survivors, newest first, is a subset of it. Returns
/// the survivors as indices into `kept`.
///
/// Blocks of kSubsumeBlock candidates keep that rule exact in parallel.
/// Each candidate of a block first scans, on the pool, the survivors
/// known before the block for h, the eligible position of its first
/// subsumer. Then, in candidate order, it scans the block's own
/// survivors so far - the newest ones - counting m eligible. Those are
/// the first m survivors the serial rule would test, so the candidate
/// is subsumed iff one of them hits within the window, or m < window
/// and h <= window - m.
std::vector<std::uint32_t> subsume(const std::vector<Candidate>& level,
                                   const std::vector<std::uint32_t>& kept,
                                   std::size_t words, std::size_t window,
                                   ThreadPool* pool, SearchStats& stats) {
  const std::size_t budget =
      window == 0 ? std::numeric_limits<std::size_t>::max() : window;
  SurvivorWindow survivors_window(words);
  std::vector<std::uint32_t> survivors;  // indices into kept
  std::array<WindowScan, kSubsumeBlock> before;
  for (std::size_t block = 0; block < kept.size(); block += kSubsumeBlock) {
    const std::size_t len = std::min(kSubsumeBlock, kept.size() - block);
    const std::size_t known = survivors_window.size();
    auto scan_known = [&](std::size_t i) {
      before[i] = survivors_window.scan(level[kept[block + i]], 0, known,
                                        budget);
    };
    if (pool != nullptr)
      pool->parallel_for(0, len, scan_known);
    else
      for (std::size_t i = 0; i < len; ++i) scan_known(i);

    for (std::size_t i = 0; i < len; ++i) {
      const Candidate& c = level[kept[block + i]];
      const WindowScan own =
          survivors_window.scan(c, known, survivors_window.size(), budget);
      stats.dominance_checks += before[i].subset_tests + own.subset_tests;
      const std::size_t h = before[i].hit;
      if (own.hit != 0 ||
          (own.eligible < budget && h != 0 && h <= budget - own.eligible)) {
        ++stats.subsumption_hits;
        continue;
      }
      survivors_window.push(c);
      survivors.push_back(std::uint32_t(block + i));
    }
  }
  return survivors;
}

struct NodeExpansion {
  std::vector<Candidate> children;
  std::optional<std::uint32_t> accept;  // first accepting matching id
  std::uint64_t useless = 0;
  std::uint64_t stalls = 0;
  std::uint64_t countdown = 0;
  std::uint64_t generated = 0;
};

enum class BfsEnd : std::uint8_t { Found, Paused, Exhausted };

struct BfsRun {
  BfsEnd end = BfsEnd::Exhausted;
  std::vector<std::uint32_t> history;  // set iff end == Found
};

BfsRun bfs_levels(const LevelSpace& space, const SearchOptions& options,
                  SearchStats& stats, std::vector<FrontierNode> frontier,
                  std::size_t depth, std::size_t beam_width,
                  std::size_t target_depth, std::uint8_t checkpoint_mode,
                  std::uint64_t round) {
  const wire_t n = space.width();
  const auto& matchings = space.matchings();
  const std::size_t words = space.set_words();
  const std::size_t depth_cap = target_depth != 0
                                    ? std::min(target_depth, options.max_depth)
                                    : options.max_depth;

  auto checkpoint_now = [&]() {
    if (options.checkpoint_path.empty()) return;
    SearchCheckpoint cp;
    cp.width = n;
    cp.mode = checkpoint_mode;
    cp.frontier_depth = std::uint32_t(depth);
    cp.target_depth = std::uint32_t(target_depth);
    cp.next_prefix = round;
    cp.stats = stats_to_array(stats);
    for (const FrontierNode& node : frontier) {
      cp.states.push_back(node.state);
      cp.histories.push_back(node.history);
    }
    write_checkpoint_or_throw(options.checkpoint_path, cp, stats);
  };

  while (!frontier.empty() && depth < depth_cap) {
    if (options.pause_after_nodes > 0 &&
        stats.nodes_expanded >= options.pause_after_nodes) {
      checkpoint_now();
      return {BfsEnd::Paused, {}};
    }

    const std::size_t next_depth = depth + 1;
    const std::size_t remaining_after = depth_cap - next_depth;
    std::vector<Candidate> level;
    std::optional<std::pair<std::uint32_t, std::uint32_t>> winner;
    // One span per level phase, each scoped to its block.
    {
      SB_OBS_SPAN("search", "expand");
      for (std::size_t chunk = 0;
           chunk < frontier.size() && !winner.has_value();
           chunk += kExpandChunk) {
        const std::size_t chunk_end =
            std::min(chunk + kExpandChunk, frontier.size());
        std::vector<NodeExpansion> outs(chunk_end - chunk);
        auto expand = [&](std::size_t i) {
          if (options.progress) options.progress();
          const FrontierNode& node = frontier[chunk + i];
          NodeExpansion& out = outs[i];
          std::vector<std::uint64_t> scratch(words);
          const PairSet useful = space.useful_pairs(node.state);

          // Pass 1: score every surviving matching by its child's
          // output-set size, without materializing states. Acceptance is
          // detected here (an accepting child ends the scan).
          std::vector<std::pair<std::uint32_t, std::uint32_t>> scored;
          OutputSet child;
          for (std::size_t mi = 0; mi < matchings.size(); ++mi) {
            const Matching& m = matchings[mi];
            bool all_useful = true;
            for (std::uint16_t id : m.pair_ids)
              if (!useful.test(id)) {
                all_useful = false;
                break;
              }
            if (!all_useful) {
              ++out.useless;
              continue;
            }
            child = node.state;
            space.apply_matching(child, m, scratch);
            if (child == node.state) {
              ++out.stalls;
              continue;
            }
            ++out.generated;
            if (space.accepts(child)) {
              out.accept = std::uint32_t(mi);
              break;
            }
            scored.emplace_back(std::uint32_t(child.count()),
                                std::uint32_t(mi));
          }
          if (out.accept.has_value()) return;

          // Beam mode: keep only the most-sorted children per node.
          if (beam_width != 0 && scored.size() > kBeamChildCap) {
            std::partial_sort(scored.begin(),
                              scored.begin() + std::ptrdiff_t(kBeamChildCap),
                              scored.end());
            scored.resize(kBeamChildCap);
          }

          // Pass 2: materialize the kept children.
          out.children.reserve(scored.size());
          for (const auto& [count, mi] : scored) {
            Candidate c;
            c.state = node.state;
            space.apply_matching(c.state, matchings[mi], scratch);
            if (target_depth != 0 &&
                space.countdown_prunes(c.state, remaining_after)) {
              ++out.countdown;
              continue;
            }
            c.parent = std::uint32_t(chunk + i);
            c.matching = mi;
            fill_candidate_meta(space, c);
            out.children.push_back(std::move(c));
          }
        };
        if (options.pool != nullptr)
          options.pool->parallel_for(0, outs.size(), expand);
        else
          for (std::size_t i = 0; i < outs.size(); ++i) expand(i);

        for (std::size_t i = 0; i < outs.size(); ++i) {
          NodeExpansion& out = outs[i];
          ++stats.nodes_expanded;
          stats.useless_filtered += out.useless;
          stats.stall_skips += out.stalls;
          stats.countdown_prunes += out.countdown;
          stats.children_generated += out.generated;
          if (out.accept.has_value() && !winner.has_value())
            winner = {std::uint32_t(chunk + i), *out.accept};
          if (!winner.has_value()) {
            if (level.size() + out.children.size() > options.state_budget)
              throw std::runtime_error(
                  "search: state budget exceeded at depth " +
                  std::to_string(next_depth));
            for (Candidate& c : out.children) level.push_back(std::move(c));
          }
        }
      }
    }

    if (winner.has_value()) {
      std::vector<std::uint32_t> history = frontier[winner->first].history;
      history.push_back(winner->second);
      return {BfsEnd::Found, std::move(history)};
    }

    // Exact-duplicate merge, keeping the first (minimal (parent,
    // matching)) copy of each state.
    std::vector<std::uint32_t> kept;
    {
      SB_OBS_SPAN("search", "dedup");
      kept.reserve(level.size());
      std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
      for (std::size_t k = 0; k < level.size(); ++k) {
        auto& bucket = buckets[level[k].hash.first];
        bool duplicate = false;
        for (std::uint32_t prior : bucket) {
          if (level[prior].hash.second == level[k].hash.second &&
              level[prior].state == level[k].state) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) {
          ++stats.dedup_hits;
          continue;
        }
        bucket.push_back(std::uint32_t(k));
        kept.push_back(std::uint32_t(k));
      }

      // Smallest (most sorted) states first; generation order tie-break.
      std::stable_sort(kept.begin(), kept.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return level[a].count < level[b].count;
                       });
      // Beam mode: bound the subsumption pass's input.
      if (beam_width != 0 && kept.size() > beam_width * 4)
        kept.resize(beam_width * 4);
    }

    std::vector<FrontierNode> next;
    {
      SB_OBS_SPAN("search", "subsume");
      std::vector<std::uint32_t> survivors =
          subsume(level, kept, words, options.subsumption_window, options.pool,
                  stats);
      if (beam_width != 0 && survivors.size() > beam_width)
        survivors.resize(beam_width);

      next.reserve(survivors.size());
      for (std::uint32_t k : survivors) {
        Candidate& c = level[kept[k]];
        std::vector<std::uint32_t> history = frontier[c.parent].history;
        history.push_back(c.matching);
        next.push_back({std::move(c.state), std::move(history)});
      }
    }
    frontier = std::move(next);
    depth = next_depth;
    checkpoint_now();
  }

  return {BfsEnd::Exhausted, {}};
}

/// Builds the depth-2 frontier (first layer + canonical second layers),
/// accounting prefix-generation statistics. Returns nullopt if a depth
/// <= 2 witness was found instead (history in `shallow`).
std::vector<FrontierNode> prefix_frontier(
    const LevelSpace& space, SearchStats& stats,
    std::optional<std::vector<std::uint32_t>>& shallow) {
  SB_OBS_SPAN("search", "prefixes");
  const wire_t n = space.width();
  shallow.reset();
  OutputSet s0 = OutputSet::full(n);
  if (space.accepts(s0)) {
    shallow = std::vector<std::uint32_t>{};
    return {};
  }
  if (n < 2) return {};
  std::vector<std::uint64_t> scratch(space.set_words());
  const auto first = std::uint32_t(space.first_layer_id());
  OutputSet s1 = s0;
  space.apply_matching(s1, space.matchings()[first], scratch);
  ++stats.children_generated;
  if (space.accepts(s1)) {
    shallow = std::vector<std::uint32_t>{first};
    return {};
  }
  PrefixGenReport prep;
  const auto prefixes =
      generate_two_layer_prefixes(space, default_prefix_options(n), &prep);
  stats.prefixes += prep.kept;
  stats.useless_filtered += prep.useless_filtered;
  stats.relabel_duplicates += prep.relabel_duplicates;
  stats.relabel_subsumed += prep.relabel_subsumed;
  stats.children_generated += prep.kept;
  for (const TwoLayerPrefix& p : prefixes) {
    if (space.accepts(p.state)) {
      shallow =
          std::vector<std::uint32_t>{first, std::uint32_t(p.second_layer_id)};
      return {};
    }
  }
  std::vector<FrontierNode> frontier;
  frontier.reserve(prefixes.size());
  for (const TwoLayerPrefix& p : prefixes)
    frontier.push_back({p.state, {first, std::uint32_t(p.second_layer_id)}});
  return frontier;
}

std::optional<SearchCheckpoint> maybe_load_checkpoint(
    const SearchOptions& options, wire_t n, std::uint8_t mode) {
  if (!options.resume || options.checkpoint_path.empty() ||
      !file_exists(options.checkpoint_path))
    return std::nullopt;
  std::string error;
  auto cp = load_checkpoint(options.checkpoint_path, &error);
  if (!cp.has_value()) throw std::runtime_error("search: " + error);
  if (cp->width != n || cp->mode != mode)
    throw std::runtime_error("search: checkpoint does not match this search");
  return cp;
}

SearchResult run_exhaustive(const LevelSpace& space,
                            const SearchOptions& options) {
  const wire_t n = space.width();
  SearchResult result;
  result.width = n;
  result.mode = SearchMode::Exhaustive;
  SearchStats& stats = result.stats;

  auto finish = [&](std::vector<std::uint32_t> history) {
    result.optimal_depth = history.size();
    result.network =
        certify_witness(network_from_history(space, history), options, stats);
    result.status = SearchStatus::Optimal;
    result.lower_bound_source = LowerBoundSource::Exhaustive;
    return result;
  };

  std::vector<FrontierNode> frontier;
  std::size_t depth = 0;
  if (auto cp = maybe_load_checkpoint(options, n, /*mode=*/0)) {
    stats = stats_from_array(cp->stats);
    depth = cp->frontier_depth;
    frontier.reserve(cp->states.size());
    for (std::size_t i = 0; i < cp->states.size(); ++i)
      frontier.push_back(
          {std::move(cp->states[i]), std::move(cp->histories[i])});
    result.resumed = true;
  } else {
    std::optional<std::vector<std::uint32_t>> shallow;
    frontier = prefix_frontier(space, stats, shallow);
    if (shallow.has_value()) return finish(std::move(*shallow));
    depth = 2;
  }

  BfsRun run = bfs_levels(space, options, stats, std::move(frontier), depth,
                          /*beam_width=*/0, /*target_depth=*/0,
                          /*checkpoint_mode=*/0, /*round=*/0);
  switch (run.end) {
    case BfsEnd::Found: return finish(std::move(run.history));
    case BfsEnd::Paused: result.status = SearchStatus::Paused; break;
    case BfsEnd::Exhausted: result.status = SearchStatus::Exhausted; break;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Existence mode: widening beam runs at the published depth.
// ---------------------------------------------------------------------------

/// Beam widths tried in order. The first beam finds a witness for every
/// supported width in practice; the wider rounds are insurance.
constexpr std::array<std::size_t, 3> kBeamRounds = {256, 1024, 4096};

SearchResult run_existence(const LevelSpace& space,
                           const SearchOptions& options) {
  const wire_t n = space.width();
  SearchResult result;
  result.width = n;
  result.mode = SearchMode::Existence;
  SearchStats& stats = result.stats;

  const auto target_opt = published_optimal_depth(n);
  if (!target_opt.has_value())
    throw std::runtime_error(
        "search: no published optimal depth for this width");
  const std::size_t target = *target_opt;
  if (target > options.max_depth) {
    result.status = SearchStatus::Exhausted;
    return result;
  }

  auto finish = [&](std::vector<std::uint32_t> history) {
    result.optimal_depth = history.size();
    result.network =
        certify_witness(network_from_history(space, history), options, stats);
    result.status = SearchStatus::Optimal;
    result.lower_bound_source = LowerBoundSource::Published;
    return result;
  };

  std::size_t start_round = 0;
  std::optional<std::vector<FrontierNode>> resumed_frontier;
  std::size_t resumed_depth = 2;
  if (auto cp = maybe_load_checkpoint(options, n, /*mode=*/1)) {
    if (cp->target_depth != target || cp->next_prefix >= kBeamRounds.size())
      throw std::runtime_error(
          "search: checkpoint does not match this search (existence)");
    stats = stats_from_array(cp->stats);
    start_round = std::size_t(cp->next_prefix);
    resumed_depth = cp->frontier_depth;
    resumed_frontier.emplace();
    resumed_frontier->reserve(cp->states.size());
    for (std::size_t i = 0; i < cp->states.size(); ++i)
      resumed_frontier->push_back(
          {std::move(cp->states[i]), std::move(cp->histories[i])});
    result.resumed = true;
  }

  // The depth <= 2 shallow cases and the prefix front. Statistics for
  // prefix generation are only accumulated on a fresh start (a resumed
  // run's loaded stats already contain them).
  std::optional<std::vector<std::uint32_t>> shallow;
  SearchStats fresh_stats;
  SearchStats& prefix_stats = result.resumed ? fresh_stats : stats;
  std::vector<FrontierNode> prefix_front =
      prefix_frontier(space, prefix_stats, shallow);
  if (shallow.has_value()) {
    if (shallow->size() == target) return finish(std::move(*shallow));
    // A witness shallower than the published optimum would be a
    // contradiction; surface it as an error rather than mask it.
    if (shallow->size() < target)
      throw std::runtime_error(
          "search: found witness below the published optimal depth");
  }
  if (target == 2) {
    result.status = SearchStatus::Exhausted;
    return result;
  }

  for (std::size_t round = start_round; round < kBeamRounds.size(); ++round) {
    std::vector<FrontierNode> frontier;
    std::size_t depth = 2;
    if (resumed_frontier.has_value() && round == start_round) {
      frontier = std::move(*resumed_frontier);
      depth = resumed_depth;
      resumed_frontier.reset();
    } else {
      // Fresh beam from the canonical prefixes. The prefix list is
      // sorted most-sorted-first, so truncating it to the beam width is
      // the depth-2 beam selection.
      frontier = prefix_front;
      if (frontier.size() > kBeamRounds[round])
        frontier.resize(kBeamRounds[round]);
    }
    BfsRun run = bfs_levels(space, options, stats, std::move(frontier), depth,
                            kBeamRounds[round], target,
                            /*checkpoint_mode=*/1, /*round=*/round);
    switch (run.end) {
      case BfsEnd::Found: return finish(std::move(run.history));
      case BfsEnd::Paused: result.status = SearchStatus::Paused; return result;
      case BfsEnd::Exhausted: break;  // widen and retry
    }
  }

  result.status = SearchStatus::Exhausted;
  return result;
}

}  // namespace

SearchResult find_min_depth_network(wire_t n, const SearchOptions& options) {
  if (n == 0 || n > kSearchWidthCap)
    throw std::invalid_argument(
        "find_min_depth_network: width must be in [1, " +
        std::to_string(kSearchWidthCap) + "]");
  SB_OBS_SPAN("search", "find_min_depth");
  const LevelSpace space(n);
  SearchMode mode = options.mode;
  if (mode == SearchMode::Auto)
    mode = n <= kExhaustiveSearchWidthCap ? SearchMode::Exhaustive
                                          : SearchMode::Existence;
  SearchResult result = mode == SearchMode::Exhaustive
                            ? run_exhaustive(space, options)
                            : run_existence(space, options);
  if (obs::enabled()) {
    SB_OBS_COUNT("search.nodes_expanded", result.stats.nodes_expanded);
    SB_OBS_COUNT("search.children_generated", result.stats.children_generated);
    SB_OBS_COUNT("search.subsumption_hits", result.stats.subsumption_hits);
    SB_OBS_COUNT("search.dedup_hits", result.stats.dedup_hits);
    SB_OBS_COUNT("search.countdown_prunes", result.stats.countdown_prunes);
    SB_OBS_COUNT("search.checkpoint_writes", result.stats.checkpoint_writes);
  }
  return result;
}

}  // namespace shufflebound
