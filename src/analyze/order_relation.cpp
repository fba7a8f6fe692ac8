#include "analyze/order_relation.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace shufflebound {

namespace {

// splitmix64 finalizer: the local mixing primitive behind the relation
// hashes. Deliberately independent of service/fingerprint.cpp - these
// hashes never key the result cache or the disk tier.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Sets every bit [0, n) of `row`, leaving the tail words clean so
// popcounts stay exact.
void fill_row(std::span<std::uint64_t> row, std::size_t n) {
  for (std::size_t w = 0; w < row.size(); ++w) {
    const std::size_t base = w * 64;
    if (base + 64 <= n) {
      row[w] = ~std::uint64_t{0};
    } else if (base < n) {
      row[w] = (std::uint64_t{1} << (n - base)) - 1;
    } else {
      row[w] = 0;
    }
  }
}

bool any_intersection(std::span<const std::uint64_t> a,
                      std::span<const std::uint64_t> b) noexcept {
  for (std::size_t w = 0; w < a.size(); ++w)
    if ((a[w] & b[w]) != 0) return true;
  return false;
}

void assign_bit(std::vector<std::uint64_t>& row, std::size_t c,
                bool value) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (c % 64);
  if (value)
    row[c / 64] |= mask;
  else
    row[c / 64] &= ~mask;
}

// The two row rewrites a comparator induces: (p, q) := (p & q, p | q)
// and its mirror (p, q) := (p | q, p & q).
void meet_join(std::span<std::uint64_t> p, std::span<std::uint64_t> q) {
  for (std::size_t w = 0; w < p.size(); ++w) {
    const std::uint64_t a = p[w];
    const std::uint64_t b = q[w];
    p[w] = a & b;
    q[w] = a | b;
  }
}

void join_meet(std::span<std::uint64_t> p, std::span<std::uint64_t> q) {
  meet_join(q, p);
}

// rows[r] |= add for every r in `which`.
void or_into_rows(BitMatrix& rows, std::span<const std::uint64_t> which,
                  std::span<const std::uint64_t> add) {
  for (std::size_t w = 0; w < which.size(); ++w) {
    for (std::uint64_t bits = which[w]; bits != 0; bits &= bits - 1) {
      const auto row =
          rows.row(w * 64 + std::size_t(std::countr_zero(bits)));
      for (std::size_t k = 0; k < row.size(); ++k) row[k] |= add[k];
    }
  }
}

// The low `count` bits set (count <= 64).
std::uint64_t low_bits(std::size_t count) noexcept {
  return count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

// One round of the 64 x 64 bit-block transpose (bit c of a[r] = entry
// (r, c)): swaps the off-diagonal J x J sub-blocks of every 2J x 2J
// diagonal block in the first `extent` rows.
template <std::size_t J>
void transpose_round(std::uint64_t* a, std::size_t extent) noexcept {
  // Bits whose index has bit log2(J) clear: the low J of every 2J.
  constexpr std::uint64_t kLow =
      ~std::uint64_t{0} / ((std::uint64_t{1} << J) + 1);
  for (std::size_t base = 0; base < extent; base += 2 * J) {
    std::uint64_t* lo = a + base;
    for (std::size_t k = 0; k < J; ++k) {
      const std::uint64_t t = ((lo[k] >> J) ^ lo[k + J]) & kLow;
      lo[k] ^= t << J;
      lo[k + J] ^= t;
    }
  }
}

// In-place transpose of the top-left extent x extent corner of a bit
// block; extent is a power of two <= 64 and the block is zero outside
// the corner.
void transpose_block(std::uint64_t* a, std::size_t extent) noexcept {
  if (extent > 32) transpose_round<32>(a, extent);
  if (extent > 16) transpose_round<16>(a, extent);
  if (extent > 8) transpose_round<8>(a, extent);
  if (extent > 4) transpose_round<4>(a, extent);
  if (extent > 2) transpose_round<2>(a, extent);
  if (extent > 1) transpose_round<1>(a, extent);
}

}  // namespace

std::size_t BitMatrix::row_count(std::size_t r) const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : row(r)) total += std::size_t(std::popcount(w));
  return total;
}

std::size_t BitMatrix::count() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : bits_) total += std::size_t(std::popcount(w));
  return total;
}

void BitMatrix::merge(const BitMatrix& other) {
  if (other.n_ != n_)
    throw std::invalid_argument("BitMatrix::merge: size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
}

void BitMatrix::transpose_into(BitMatrix& out) const {
  if (out.n_ != n_) out = BitMatrix(n_);
  // Row block bi x word column bj here is row block bj x word column bi
  // there. Rows past n_ read as zero, so below 64 wires one block of
  // bit_ceil(n_) rows holds everything.
  const std::size_t extent = std::bit_ceil(std::min<std::size_t>(n_, 64));
  std::uint64_t block[64];
  for (std::size_t bi = 0; bi < words_; ++bi) {
    const std::size_t rows = std::min<std::size_t>(64, n_ - 64 * bi);
    for (std::size_t bj = 0; bj < words_; ++bj) {
      const std::size_t cols = std::min<std::size_t>(64, n_ - 64 * bj);
      std::uint64_t any = 0;
      std::uint64_t all = ~std::uint64_t{0};
      for (std::size_t k = 0; k < rows; ++k) {
        block[k] = bits_[(64 * bi + k) * words_ + bj];
        any |= block[k];
        all &= block[k];
      }
      // Relations are mostly empty or full off their diagonal blocks.
      if (any == 0 || all == low_bits(cols)) {
        const std::uint64_t word = any == 0 ? 0 : low_bits(rows);
        for (std::size_t k = 0; k < cols; ++k)
          out.bits_[(64 * bj + k) * words_ + bi] = word;
        continue;
      }
      std::fill(block + rows, block + extent, std::uint64_t{0});
      transpose_block(block, extent);
      for (std::size_t k = 0; k < cols; ++k)
        out.bits_[(64 * bj + k) * words_ + bi] = block[k];
    }
  }
}

void BitMatrix::set_diagonal() {
  for (std::size_t i = 0; i < n_; ++i) set(i, i);
}

OrderRelation::OrderRelation(wire_t width)
    : width_(width),
      up_(width),
      down_(width),
      zero_(BitMatrix::words_per_row(width), 0),
      one_(BitMatrix::words_per_row(width), 0) {
  up_.set_diagonal();
  down_.set_diagonal();
}

void OrderRelation::pin_zero(wire_t s) {
  if (s >= width_) throw std::out_of_range("OrderRelation::pin_zero: slot");
  assign_bit(zero_, s, true);
  inject_constant_rows();
}

void OrderRelation::pin_one(wire_t s) {
  if (s >= width_) throw std::out_of_range("OrderRelation::pin_one: slot");
  assign_bit(one_, s, true);
  inject_constant_rows();
}

void OrderRelation::apply_level(std::span<const LevelOp> ops, OpFate* fates) {
  // Judge each op against the PRE-level relation: these verdicts are
  // what redundancy elimination acts on, so they must not see the
  // level's own effects.
  if (fates != nullptr) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const LevelOp& op = ops[i];
      if (leq(op.min_slot, op.max_slot))
        fates[i] = OpFate::Redundant;
      else if (leq(op.max_slot, op.min_slot))
        fates[i] = OpFate::AlwaysExchange;
      else
        fates[i] = OpFate::Effective;
    }
  }
  if (ops.empty()) return;

  // Left-first expansion, in up-set form. Step 1 rewrites each row g of
  // up_ from {y : g <= old y} to {v : g <= E_v} (E_v = the level's
  // output expression for slot v): g <= min(m, M) iff g <= m and
  // g <= M, g <= max(m, M) iff g <= m or g <= M. That rewrites columns
  // m and M of up_, i.e. rows m and M of its transpose down_; ops touch
  // disjoint slots, so the rewrite is op-local and in place.
  //
  // Right-first expansion, in down-set form, is the exact dual: its
  // step 1 rewrites rows of up_. down_ and up_ are each read once, by
  // their own step 1, so both are rewritten in place.
  for (const LevelOp& op : ops) {
    meet_join(down_.row(op.min_slot), down_.row(op.max_slot));
    join_meet(up_.row(op.min_slot), up_.row(op.max_slot));
  }
  down_.transpose_into(left_);  // row g = {v : g <= E_v}
  up_.transpose_into(right_);   // row g = {v : E_v <= g}
  // Step 2 rewrites rows from generators to expressions:
  // {v : E_u <= E_v} for E_u = min is the union of the operand rows,
  // for max the intersection; identity slots keep their row. Dually
  // for {v : E_v <= E_u}.
  for (const LevelOp& op : ops) {
    join_meet(left_.row(op.min_slot), left_.row(op.max_slot));
    meet_join(right_.row(op.min_slot), right_.row(op.max_slot));
  }

  // Union of both orders; min <= min facts come from the right-first
  // pass, max <= max facts from the left-first pass. With both, each
  // level's result is exactly the one-level semantic consequence of the
  // previous relation, which also keeps it transitively closed.
  right_.transpose_into(up_);
  up_.merge(left_);
  up_.set_diagonal();
  left_.transpose_into(down_);
  down_.merge(right_);
  down_.set_diagonal();

  // Constant transfer: min is 0 if either operand is, 1 only if both
  // are; max dually.
  for (const LevelOp& op : ops) {
    const bool zm = known_zero(op.min_slot);
    const bool zM = known_zero(op.max_slot);
    const bool om = known_one(op.min_slot);
    const bool oM = known_one(op.max_slot);
    assign_bit(zero_, op.min_slot, zm || zM);
    assign_bit(zero_, op.max_slot, zm && zM);
    assign_bit(one_, op.min_slot, om && oM);
    assign_bit(one_, op.max_slot, om || oM);
  }

  inject_constant_rows();
}

void OrderRelation::add_blocks(std::span<const wire_t> low,
                               std::span<const wire_t> high,
                               std::span<const std::uint32_t> ends) {
  if (low.size() != high.size() ||
      (ends.empty() ? !low.empty() : ends.back() != low.size()))
    throw std::invalid_argument("OrderRelation::add_blocks: block shape");
  for (std::size_t i = 0; i < low.size(); ++i)
    if (low[i] >= width_ || high[i] >= width_)
      throw std::out_of_range("OrderRelation::add_blocks: slot");
  if (ends.empty()) return;
  const std::size_t words = up_.row_words();
  std::uint32_t begin = 0;
  for (const std::uint32_t end : ends) {
    below_.assign(words, 0);  // L*
    above_.assign(words, 0);  // H*
    for (std::uint32_t i = begin; i < end; ++i) {
      const auto d = down_.row(low[i]);
      const auto u = up_.row(high[i]);
      for (std::size_t w = 0; w < words; ++w) {
        below_[w] |= d[w];
        above_[w] |= u[w];
      }
    }
    or_into_rows(up_, below_, above_);
    or_into_rows(down_, above_, below_);
    begin = end;
  }
  inject_constant_rows();
}

void OrderRelation::inject_constant_rows() {
  bool any_zero = false;
  bool any_one = false;
  for (std::uint64_t w : zero_) any_zero |= (w != 0);
  for (std::uint64_t w : one_) any_one |= (w != 0);
  if (!any_zero && !any_one) return;
  // Enrich first: anything proven <= a 0-slot is itself 0, anything
  // proven >= a 1-slot is itself 1 (the relation is transitively
  // closed, so one pass reaches the fixpoint).
  for (wire_t s = 0; s < width_; ++s) {
    if (!known_zero(s) && any_intersection(up_.row(s), zero_))
      assign_bit(zero_, s, true);
    if (!known_one(s) && any_intersection(down_.row(s), one_))
      assign_bit(one_, s, true);
  }
  // A 0-slot is below everything; a 1-slot is above everything.
  for (wire_t s = 0; s < width_; ++s) {
    if (known_zero(s)) fill_row(up_.row(s), width_);
    auto row = up_.row(s);
    for (std::size_t w = 0; w < row.size(); ++w) row[w] |= one_[w];
  }
  up_.set_diagonal();
  up_.transpose_into(down_);
}

std::size_t OrderRelation::pair_count() const noexcept {
  const std::size_t total = up_.count();
  return total >= width_ ? total - width_ : 0;
}

bool OrderRelation::proves_chain(std::span<const wire_t> order) const noexcept {
  for (std::size_t p = 0; p + 1 < order.size(); ++p)
    if (!leq(order[p], order[p + 1])) return false;
  return true;
}

std::optional<std::vector<wire_t>> OrderRelation::total_order_ranks() const {
  std::vector<wire_t> ranks(width_, 0);
  std::vector<bool> seen(width_, false);
  for (wire_t x = 0; x < width_; ++x) {
    // Every other slot must be above or below x, and none both. An
    // incomparable pair is not a total order; a forced-equal pair is
    // not a STRICT total order - ranks would collide, so certification
    // up to relabeling does not follow and we stay inconclusive.
    const auto up = up_.row(x);
    const auto down = down_.row(x);
    std::size_t comparable = 0;
    std::size_t both = 0;
    for (std::size_t w = 0; w < up.size(); ++w) {
      comparable += std::size_t(std::popcount(up[w] | down[w]));
      both += std::size_t(std::popcount(up[w] & down[w]));
    }
    if (comparable != width_ || both != 1) return std::nullopt;
    ranks[x] = static_cast<wire_t>(down_.row_count(x) - 1);
    if (seen[ranks[x]]) return std::nullopt;
    seen[ranks[x]] = true;
  }
  return ranks;
}

std::pair<std::uint64_t, std::uint64_t> OrderRelation::fingerprint() const {
  std::uint64_t h1 = mix64(0x414E414C595A4531ull ^ width_);
  std::uint64_t h2 = mix64(0x414E414C595A4532ull ^ width_);
  auto absorb = [&](std::uint64_t word) {
    h1 = mix64(h1 ^ word);
    h2 = mix64(h2 + (word ^ 0xA5A5A5A5A5A5A5A5ull));
  };
  for (wire_t x = 0; x < width_; ++x)
    for (std::uint64_t w : up_.row(x)) absorb(w);
  for (std::uint64_t w : zero_) absorb(w);
  for (std::uint64_t w : one_) absorb(w);
  return {h1, h2};
}

std::pair<std::uint64_t, std::uint64_t> OrderRelation::invariant_fingerprint()
    const {
  // Per-slot signature from relabel-invariant degrees, combined with
  // commutative operations so the slot order cannot leak in.
  std::vector<std::uint64_t> degree(width_);
  for (wire_t x = 0; x < width_; ++x)
    degree[x] = (std::uint64_t(up_.row_count(x)) << 32) |
                std::uint64_t(down_.row_count(x));
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::vector<std::uint64_t> up_neighbors;
  std::vector<std::uint64_t> down_neighbors;
  up_neighbors.reserve(width_);
  down_neighbors.reserve(width_);
  const auto neighbor_degrees = [&](std::span<const std::uint64_t> row,
                                    wire_t self,
                                    std::vector<std::uint64_t>& out) {
    out.clear();
    for (std::size_t w = 0; w < row.size(); ++w)
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const std::size_t y = w * 64 + std::size_t(std::countr_zero(bits));
        if (y != self) out.push_back(degree[y]);
      }
  };
  for (wire_t x = 0; x < width_; ++x) {
    neighbor_degrees(up_.row(x), x, up_neighbors);
    neighbor_degrees(down_.row(x), x, down_neighbors);
    std::sort(up_neighbors.begin(), up_neighbors.end());
    std::sort(down_neighbors.begin(), down_neighbors.end());
    std::uint64_t sig = mix64(degree[x]);
    for (std::uint64_t d : up_neighbors) sig = mix64(sig ^ d);
    sig = mix64(sig ^ 0xC3C3C3C3C3C3C3C3ull);
    for (std::uint64_t d : down_neighbors) sig = mix64(sig ^ d);
    sig = mix64(sig ^ (std::uint64_t(known_zero(x)) << 1) ^
                std::uint64_t(known_one(x)));
    sum += sig;
    xr ^= mix64(sig);
  }
  return {mix64(sum ^ width_), mix64(xr + width_)};
}

}  // namespace shufflebound
