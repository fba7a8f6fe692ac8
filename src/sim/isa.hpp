// Runtime ISA dispatch for the wide-lane 0-1 sweep kernel.
//
// This is the library's one way to pick a kernel ISA. Explicit per-ISA
// sweep kernels are compiled with function target attributes in one
// translation unit (isa.cpp), so a binary built for a conservative
// baseline (x86-64 SSE2) still runs AVX2/AVX-512 code on a machine that
// has it. The CPU is probed ONCE at first use via CPUID (x86) / the
// architecture baseline (aarch64 NEON), and the kernel is selected
// through a small dispatch table.
//
//   path      lane width   requirement
//   scalar    64 bits      always available (the reference path)
//   generic   256 bits     always available (baseline codegen)
//   neon      128 bits     aarch64 builds (NEON is baseline there)
//   avx2      256 bits     x86 with AVX2
//   avx512    512 bits     x86 with AVX-512F
//
// Determinism contract: every path computes the EXACT minimal failing
// vector within its block, and the caller folds blocks with an atomic
// minimum - so the verdict, the minimal failing vector, and every
// certificate derived from them are bit-for-bit identical across paths
// and lane widths (tests/test_dispatch.cpp holds all available paths to
// this). Selection honors the SHUFFLEBOUND_FORCE_ISA environment
// variable (scalar|generic|neon|avx2|avx512) for differential testing;
// naming an unavailable path throws rather than silently falling back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace shufflebound {
class CompiledNetwork;
}  // namespace shufflebound

namespace shufflebound::simd {

enum class Isa : std::uint8_t { Scalar, Generic, Neon, Avx2, Avx512 };

/// One entry of the dispatch table: a sweep kernel plus its geometry.
struct KernelDispatch {
  Isa isa = Isa::Scalar;
  /// Stable lowercase name ("scalar", "generic", "neon", "avx2",
  /// "avx512") - the SHUFFLEBOUND_FORCE_ISA vocabulary.
  const char* name = "scalar";
  /// Test vectors per sweep block (= the path's lane width in bits).
  std::size_t lane_bits = 64;
  /// Evaluates the block of test vectors [base, base + lane_bits) - base
  /// a multiple of 64 - against `net` (width <= kSweepWidthCap) and
  /// returns the minimal failing vector below `total` in the block, or
  /// UINT64_MAX when every valid vector in the block sorts.
  std::uint64_t (*sweep_block)(const CompiledNetwork& net, std::uint64_t base,
                               std::uint64_t total) = nullptr;
};

const char* isa_name(Isa isa) noexcept;

/// Parses the SHUFFLEBOUND_FORCE_ISA vocabulary; nullopt on unknown.
std::optional<Isa> parse_isa(std::string_view name) noexcept;

/// True when the path is compiled in AND the running CPU supports it.
bool isa_available(Isa isa) noexcept;

/// Every available path, scalar first, widest last.
std::vector<Isa> available_isas();

/// Dispatch entry for one path. Throws std::invalid_argument when the
/// path is not available on this build/CPU.
const KernelDispatch& kernel_for(Isa isa);

/// The selected path: the override installed by force_isa() if any,
/// else SHUFFLEBOUND_FORCE_ISA if set (throws std::runtime_error on an
/// unknown or unavailable name - loudly, not a silent fallback), else
/// the widest available path. The environment lookup happens once, at
/// first use, and is cached.
const KernelDispatch& active_kernel();

/// Process-wide test/bench override; nullopt restores the default
/// selection. Throws like kernel_for on unavailable paths. Not for
/// concurrent use with in-flight sweeps (the differential suites force,
/// sweep, then restore).
void force_isa(std::optional<Isa> isa);

}  // namespace shufflebound::simd
