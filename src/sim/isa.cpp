#include "sim/isa.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/bitparallel.hpp"
#include "sim/compiled_net.hpp"
#include "sim/simd.hpp"

namespace shufflebound::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
#define SHUFFLEBOUND_ISA_X86 1
#endif
#if defined(__aarch64__)
#define SHUFFLEBOUND_ISA_NEON 1
#endif

// GCC/Clang generic vector types: the compiler lowers each to whatever
// the enclosing function's target has (one ymm op under avx2, SSE2 or
// NEON pairs at baseline), so no intrinsic header is needed. Lane64 is
// the one-word lane of the scalar path.
typedef std::uint64_t Lane64 __attribute__((vector_size(8)));
typedef std::uint64_t Lane128 __attribute__((vector_size(16)));
typedef std::uint64_t Lane256 __attribute__((vector_size(32)));
typedef std::uint64_t Lane512 __attribute__((vector_size(64)));

/// The one sweep-block body every path shares, written against an
/// abstract lane type and forced inline so each per-ISA wrapper below
/// gets its own copy compiled under that wrapper's target attribute
/// (vector ops lower to the wrapper's ISA, not the translation unit's
/// baseline). The body is self-contained - the comparator loop is
/// written here, not shared - so no vector code can escape into a
/// default-target instantiation. This is the library's one packed
/// comparator loop over a compiled op table.
///
/// Result contract (pinned by tests/test_dispatch.cpp and
/// tests/test_simd.cpp): the exact minimal failing vector in
/// [base, min(base + lane bits, total)), or UINT64_MAX.
template <typename Lane>
__attribute__((always_inline)) inline std::uint64_t sweep_block_impl(
    const CompiledNetwork& net, std::uint64_t base, std::uint64_t total) {
  constexpr std::size_t kWords = sizeof(Lane) / sizeof(std::uint64_t);
  const wire_t n = net.width();
  Lane words[kSweepWidthCap + 2];
  for (wire_t w = 0; w < n; ++w) {
    Lane lane;
    for (std::size_t j = 0; j < kWords; ++j)
      lane[j] = pattern_word(w, base + 64 * j);
    words[w] = lane;
  }
  {
    const std::uint32_t* mins = net.min_slots().data();
    const std::uint32_t* maxs = net.max_slots().data();
    const std::size_t ops = net.min_slots().size();
    for (std::size_t i = 0; i < ops; ++i) {
      const Lane a = words[mins[i]];
      const Lane b = words[maxs[i]];
      words[mins[i]] = a & b;
      words[maxs[i]] = a | b;
    }
  }
  // Sorted ascending means 0s then 1s: no output position may carry 1
  // while a later position carries 0.
  const std::span<const wire_t> order = net.output_order();
  Lane bad = {};
  for (wire_t p = 0; p + 1 < n; ++p)
    bad = bad | (words[order[p]] & ~words[order[p + 1]]);
  if (base + kWords * 64 > total) {
    Lane valid;
    for (std::size_t j = 0; j < kWords; ++j)
      valid[j] = valid_mask(base + 64 * j, total);
    bad = bad & valid;
  }
  for (std::size_t j = 0; j < kWords; ++j) {
    if (bad[j] != 0)
      return base + 64 * j + static_cast<std::uint64_t>(std::countr_zero(
                                 static_cast<std::uint64_t>(bad[j])));
  }
  return UINT64_MAX;
}

std::uint64_t sweep_block_scalar(const CompiledNetwork& net,
                                 std::uint64_t base, std::uint64_t total) {
  return sweep_block_impl<Lane64>(net, base, total);
}

std::uint64_t sweep_block_generic(const CompiledNetwork& net,
                                  std::uint64_t base, std::uint64_t total) {
  return sweep_block_impl<Lane256>(net, base, total);
}

#ifdef SHUFFLEBOUND_ISA_NEON
std::uint64_t sweep_block_neon(const CompiledNetwork& net, std::uint64_t base,
                               std::uint64_t total) {
  return sweep_block_impl<Lane128>(net, base, total);
}
#endif

#ifdef SHUFFLEBOUND_ISA_X86
__attribute__((target("avx2"))) std::uint64_t sweep_block_avx2(
    const CompiledNetwork& net, std::uint64_t base, std::uint64_t total) {
  return sweep_block_impl<Lane256>(net, base, total);
}

__attribute__((target("avx512f"))) std::uint64_t sweep_block_avx512(
    const CompiledNetwork& net, std::uint64_t base, std::uint64_t total) {
  return sweep_block_impl<Lane512>(net, base, total);
}
#endif

constexpr KernelDispatch kScalarKernel{Isa::Scalar, "scalar", 64,
                                       &sweep_block_scalar};
constexpr KernelDispatch kGenericKernel{Isa::Generic, "generic", 256,
                                        &sweep_block_generic};
#ifdef SHUFFLEBOUND_ISA_NEON
constexpr KernelDispatch kNeonKernel{Isa::Neon, "neon", 128,
                                     &sweep_block_neon};
#endif
#ifdef SHUFFLEBOUND_ISA_X86
constexpr KernelDispatch kAvx2Kernel{Isa::Avx2, "avx2", 256,
                                     &sweep_block_avx2};
constexpr KernelDispatch kAvx512Kernel{Isa::Avx512, "avx512", 512,
                                       &sweep_block_avx512};
#endif

/// nullptr for a path this build did not compile or this CPU lacks.
const KernelDispatch* find_kernel(Isa isa) noexcept {
  switch (isa) {
    case Isa::Scalar:
      return &kScalarKernel;
    case Isa::Generic:
      return &kGenericKernel;
#ifdef SHUFFLEBOUND_ISA_NEON
    case Isa::Neon:
      return &kNeonKernel;
#endif
#ifdef SHUFFLEBOUND_ISA_X86
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") ? &kAvx2Kernel : nullptr;
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") ? &kAvx512Kernel : nullptr;
#endif
    default:
      return nullptr;
  }
}

std::string available_names() {
  std::string out;
  for (const Isa isa : available_isas()) {
    if (!out.empty()) out += "|";
    out += isa_name(isa);
  }
  return out;
}

/// Installed by force_isa(); checked before the cached env selection so
/// tests can steer dispatch even when the environment names a path.
std::atomic<const KernelDispatch*> g_forced{nullptr};

const KernelDispatch& select_default() {
  if (const char* env = std::getenv("SHUFFLEBOUND_FORCE_ISA");
      env != nullptr && *env != '\0') {
    const std::optional<Isa> isa = parse_isa(env);
    if (!isa.has_value())
      throw std::runtime_error(
          std::string("SHUFFLEBOUND_FORCE_ISA: unknown ISA \"") + env +
          "\" (available on this build/CPU: " + available_names() + ")");
    const KernelDispatch* kernel = find_kernel(*isa);
    if (kernel == nullptr)
      throw std::runtime_error(
          std::string("SHUFFLEBOUND_FORCE_ISA: ISA \"") + env +
          "\" is not available on this build/CPU (available: " +
          available_names() + ")");
    return *kernel;
  }
  // Widest first; scalar is always present.
  for (const Isa isa :
       {Isa::Avx512, Isa::Avx2, Isa::Neon, Isa::Generic}) {
    if (const KernelDispatch* kernel = find_kernel(isa)) return *kernel;
  }
  return kScalarKernel;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Generic: return "generic";
    case Isa::Neon: return "neon";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "scalar";
}

std::optional<Isa> parse_isa(std::string_view name) noexcept {
  if (name == "scalar") return Isa::Scalar;
  if (name == "generic") return Isa::Generic;
  if (name == "neon") return Isa::Neon;
  if (name == "avx2") return Isa::Avx2;
  if (name == "avx512") return Isa::Avx512;
  return std::nullopt;
}

bool isa_available(Isa isa) noexcept { return find_kernel(isa) != nullptr; }

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa :
       {Isa::Scalar, Isa::Generic, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    if (isa_available(isa)) out.push_back(isa);
  }
  return out;
}

const KernelDispatch& kernel_for(Isa isa) {
  if (const KernelDispatch* kernel = find_kernel(isa)) return *kernel;
  throw std::invalid_argument(
      std::string("kernel_for: ISA \"") + isa_name(isa) +
      "\" is not available on this build/CPU (available: " +
      available_names() + ")");
}

const KernelDispatch& active_kernel() {
  if (const KernelDispatch* forced =
          g_forced.load(std::memory_order_acquire)) {
    return *forced;
  }
  // Magic static: the (possibly throwing) environment lookup runs once;
  // a throw propagates to the caller and the lookup retries next call.
  static const KernelDispatch& selected = select_default();
  return selected;
}

void force_isa(std::optional<Isa> isa) {
  if (!isa.has_value()) {
    g_forced.store(nullptr, std::memory_order_release);
    return;
  }
  g_forced.store(&kernel_for(*isa), std::memory_order_release);
}

}  // namespace shufflebound::simd
