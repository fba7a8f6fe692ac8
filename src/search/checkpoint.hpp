// Versioned, CRC-guarded checkpoint file for long searches.
//
// The search writes its resumable state - the BFS frontier (exhaustive
// mode) or the cursor into the sorted prefix list (existence mode) plus
// running statistics - at level/batch boundaries. The on-disk format is
// little-endian, magic "SBSR", version 1, with a CRC-32 (IEEE, the
// util/crc32.hpp polynomial) of everything before the trailer; loads
// verify magic, version, and CRC and fail loudly on any mismatch so a
// truncated or foreign file can never silently corrupt a search. Writes
// go to `<path>.tmp` and rename into place, so a crash mid-write leaves
// the previous checkpoint intact.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/gate.hpp"
#include "search/output_set.hpp"

namespace shufflebound {

inline constexpr std::uint32_t kCheckpointMagic = 0x53425352;  // "SBSR"
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Everything needed to resume a search mid-flight: states = the current
/// frontier at depth frontier_depth, histories = each state's matching-id
/// trail. `mode` is 0 for the exhaustive BFS and 1 for the existence
/// beam BFS (next_prefix = the beam round in progress).
struct SearchCheckpoint {
  wire_t width = 0;
  std::uint8_t mode = 0;
  std::uint32_t frontier_depth = 0;
  std::uint32_t target_depth = 0;
  std::uint64_t next_prefix = 0;
  std::array<std::uint64_t, 16> stats{};
  std::vector<OutputSet> states;
  std::vector<std::vector<std::uint32_t>> histories;
};

/// Serializes and atomically replaces `path` (tmp + rename). Returns
/// false and fills `error` on I/O failure.
bool save_checkpoint(const std::string& path, const SearchCheckpoint& cp,
                     std::string* error = nullptr);

/// Loads and verifies a checkpoint. Returns nullopt and fills `error`
/// when the file is missing, truncated, CRC-corrupt, or from a
/// different format version.
std::optional<SearchCheckpoint> load_checkpoint(const std::string& path,
                                                std::string* error = nullptr);

}  // namespace shufflebound
