#include "service/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace shufflebound {

namespace {

constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Domain-separation tags; absorbed before each structural element so that
// e.g. (levels...) and (steps...) sequences cannot alias.
constexpr std::uint64_t kTagCircuit = 0xC111C111C111C111ull;
constexpr std::uint64_t kTagRegister = 0x4E674E674E674E67ull;
constexpr std::uint64_t kTagIterated = 0x17E417E417E417E4ull;
constexpr std::uint64_t kTagLevel = 0x1E7E1ull;
constexpr std::uint64_t kTagStep = 0x57E9ull;
constexpr std::uint64_t kTagStage = 0x57A6Eull;
constexpr std::uint64_t kTagTree = 0x7433ull;

std::uint64_t gate_word(const Gate& g) noexcept {
  return (static_cast<std::uint64_t>(g.lo) << 40) |
         (static_cast<std::uint64_t>(g.hi) << 8) |
         static_cast<std::uint64_t>(g.op);
}

void absorb_levels(FingerprintHasher& h, const ComparatorNetwork& net) {
  h.absorb(net.width());
  h.absorb(net.depth());
  std::vector<Gate> sorted;
  for (const Level& level : net.levels()) {
    h.absorb(kTagLevel);
    h.absorb(level.gates.size());
    sorted.assign(level.gates.begin(), level.gates.end());
    // Gates of one level commute (disjoint wires): hash order-free.
    std::sort(sorted.begin(), sorted.end(), [](const Gate& x, const Gate& y) {
      return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
    });
    for (const Gate& g : sorted) h.absorb(gate_word(g));
  }
}

void absorb_permutation(FingerprintHasher& h, const Permutation& perm) {
  h.absorb(perm.size());
  for (const wire_t image : perm.image()) h.absorb(image);
}

}  // namespace

void FingerprintHasher::absorb(std::uint64_t word) noexcept {
  ++length_;
  a_ = mix64(a_ ^ (word * 0x9E3779B97F4A7C15ull));
  b_ = mix64(b_ + word + 0x632BE59BD9B4E019ull * length_);
}

void FingerprintHasher::absorb_bytes(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (std::size_t i = 0; i < size; ++i) {
    word |= static_cast<std::uint64_t>(bytes[i]) << (8 * filled);
    if (++filled == 8) {
      absorb(word);
      word = 0;
      filled = 0;
    }
  }
  // Length-prefixing via the final absorb makes the padding unambiguous.
  absorb(word);
  absorb(size);
}

Fingerprint FingerprintHasher::finish() const noexcept {
  // Cross-mix the lanes so each output word depends on both.
  const std::uint64_t hi = mix64(a_ + 0x9E3779B97F4A7C15ull * length_ + b_);
  const std::uint64_t lo = mix64(b_ ^ mix64(a_ ^ length_));
  return Fingerprint{hi, lo};
}

std::array<std::uint8_t, 16> Fingerprint::to_bytes() const noexcept {
  // Explicit shifts, not memcpy: the layout must be little-endian even on
  // a big-endian host, because cache files travel between machines.
  std::array<std::uint8_t, 16> bytes{};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(lo >> (8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return bytes;
}

Fingerprint Fingerprint::from_bytes(
    const std::array<std::uint8_t, 16>& bytes) noexcept {
  Fingerprint fp;
  for (std::size_t i = 0; i < 8; ++i) {
    fp.lo |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    fp.hi |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  return fp;
}

std::string Fingerprint::to_hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

Fingerprint fingerprint(const ComparatorNetwork& net) {
  FingerprintHasher h;
  h.absorb(kTagCircuit);
  absorb_levels(h, net);
  return h.finish();
}

Fingerprint fingerprint(const RegisterNetwork& net) {
  FingerprintHasher h;
  h.absorb(kTagRegister);
  h.absorb(net.width());
  h.absorb(net.depth());
  for (const RegisterStep& step : net.steps()) {
    h.absorb(kTagStep);
    absorb_permutation(h, step.perm);
    h.absorb(step.ops.size());
    for (const GateOp op : step.ops) h.absorb(static_cast<std::uint64_t>(op));
  }
  return h.finish();
}

Fingerprint fingerprint(const IteratedRdn& net) {
  FingerprintHasher h;
  h.absorb(kTagIterated);
  h.absorb(net.width());
  h.absorb(net.stage_count());
  for (const IteratedRdn::Stage& stage : net.stages()) {
    h.absorb(kTagStage);
    absorb_permutation(h, stage.pre);
    h.absorb(kTagTree);
    const std::vector<wire_t>& order = stage.chunk.tree.leaf_order();
    h.absorb(order.size());
    for (const wire_t w : order) h.absorb(w);
    absorb_levels(h, stage.chunk.net);
  }
  return h.finish();
}

}  // namespace shufflebound
