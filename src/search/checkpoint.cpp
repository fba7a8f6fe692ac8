#include "search/checkpoint.hpp"

#include <cstdio>
#include <cstring>

#include "search/level_space.hpp"
#include "util/crc32.hpp"

namespace shufflebound {

namespace {

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf.push_back(std::uint8_t((v >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf.push_back(std::uint8_t((v >> (8 * i)) & 0xFF));
}

struct Reader {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (pos + 4 > size) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(data[pos + std::size_t(i)]) << (8 * i);
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    if (pos + 8 > size) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(data[pos + std::size_t(i)]) << (8 * i);
    pos += 8;
    return v;
  }

  std::size_t remaining() const noexcept { return size - pos; }
};

void set_error(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

}  // namespace

bool save_checkpoint(const std::string& path, const SearchCheckpoint& cp,
                     std::string* error) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, kCheckpointMagic);
  put_u32(buf, kCheckpointVersion);
  put_u32(buf, cp.width);
  put_u32(buf, cp.mode);
  put_u32(buf, cp.frontier_depth);
  put_u32(buf, cp.target_depth);
  put_u64(buf, cp.next_prefix);
  for (std::uint64_t s : cp.stats) put_u64(buf, s);
  put_u64(buf, cp.states.size());
  if (cp.histories.size() != cp.states.size()) {
    set_error(error, "save_checkpoint: states/histories size mismatch");
    return false;
  }
  for (std::size_t i = 0; i < cp.states.size(); ++i) {
    const auto& history = cp.histories[i];
    put_u32(buf, std::uint32_t(history.size()));
    for (std::uint32_t id : history) put_u32(buf, id);
    for (std::uint64_t w : cp.states[i].words()) put_u64(buf, w);
  }
  put_u32(buf, crc32_ieee(buf.data(), buf.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, "save_checkpoint: cannot open temp file");
    return false;
  }
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    set_error(error, "save_checkpoint: short write");
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    set_error(error, "save_checkpoint: rename failed");
    return false;
  }
  return true;
}

std::optional<SearchCheckpoint> load_checkpoint(const std::string& path,
                                                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, "load_checkpoint: cannot open file");
    return std::nullopt;
  }
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    buf.insert(buf.end(), chunk, chunk + got);
  std::fclose(f);

  if (buf.size() < 4) {
    set_error(error, "load_checkpoint: file too short");
    return std::nullopt;
  }
  Reader crc_reader{buf.data() + buf.size() - 4, 4, 0, true};
  const std::uint32_t stored_crc = crc_reader.u32();
  if (crc32_ieee(buf.data(), buf.size() - 4) != stored_crc) {
    set_error(error, "load_checkpoint: CRC mismatch");
    return std::nullopt;
  }

  Reader r{buf.data(), buf.size() - 4, 0, true};
  if (r.u32() != kCheckpointMagic) {
    set_error(error, "load_checkpoint: bad magic");
    return std::nullopt;
  }
  if (r.u32() != kCheckpointVersion) {
    set_error(error, "load_checkpoint: unsupported version");
    return std::nullopt;
  }
  SearchCheckpoint cp;
  cp.width = r.u32();
  cp.mode = std::uint8_t(r.u32());
  cp.frontier_depth = r.u32();
  cp.target_depth = r.u32();
  cp.next_prefix = r.u64();
  for (std::uint64_t& s : cp.stats) s = r.u64();
  if (!r.ok || cp.width == 0 || cp.width > kSearchWidthCap) {
    set_error(error, "load_checkpoint: corrupt header");
    return std::nullopt;
  }
  // Every count read from the file is bounded by the bytes that would
  // have to follow it before anything is reserved, so a hostile count
  // costs a rejection, not an allocation.
  const std::uint64_t state_count = r.u64();
  const std::size_t words = OutputSet::word_count(cp.width);
  const std::size_t min_state_bytes = 4 + 8 * words;
  if (!r.ok || state_count > r.remaining() / min_state_bytes) {
    set_error(error, "load_checkpoint: state count exceeds payload");
    return std::nullopt;
  }
  cp.states.reserve(std::size_t(state_count));
  cp.histories.reserve(std::size_t(state_count));
  for (std::uint64_t i = 0; i < state_count && r.ok; ++i) {
    const std::uint32_t len = r.u32();
    if (!r.ok || len > r.remaining() / 4) {
      set_error(error, "load_checkpoint: history length exceeds payload");
      return std::nullopt;
    }
    std::vector<std::uint32_t> history;
    history.reserve(len);
    for (std::uint32_t k = 0; k < len && r.ok; ++k)
      history.push_back(r.u32());
    OutputSet s = OutputSet::full(cp.width);
    for (std::size_t w = 0; w < words && r.ok; ++w) s.words()[w] = r.u64();
    cp.histories.push_back(std::move(history));
    cp.states.push_back(std::move(s));
  }
  if (!r.ok || r.pos != r.size) {
    set_error(error, "load_checkpoint: truncated or oversized payload");
    return std::nullopt;
  }
  return cp;
}

}  // namespace shufflebound
