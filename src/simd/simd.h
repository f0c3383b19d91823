#ifndef VFPS_SIMD_SIMD_H_
#define VFPS_SIMD_SIMD_H_

/// \file
/// \brief Runtime SIMD dispatch for the hot kernels (NTT butterflies, RNS
/// pointwise ops, distance/dot kernels, CRC-32).
///
/// The kernels ship in up to three backends per operation: a scalar
/// reference (always built, the differential-test oracle), an AVX2 path, and
/// an AVX-512 path. Which one runs is decided once per process:
///
///   1. Compile guard: the vector paths exist only on x86-64 with a
///      GCC/Clang-compatible compiler (`VFPS_SIMD_X86`). They are built with
///      per-function target attributes, so a portable build still contains
///      them — selection happens at runtime, not at configure time.
///      `VFPS_NATIVE_ARCH` (-march=native) only changes how the surrounding
///      scalar code is tuned.
///   2. Runtime CPUID: DetectCpuIsa() picks the widest ISA the host
///      supports (AVX-512 requires F+DQ).
///   3. `VFPS_FORCE_SCALAR` environment override: any value other than
///      empty/"0" pins the dispatch to the scalar reference, so any run —
///      test, bench, CLI — can be replayed on the reference path.
///
/// Contract: for the integer kernels (NTT, RNS ops, CRC-32) every backend
/// is bit-identical to the scalar reference. For the double kernels the
/// documented contract is 1e-9 relative tolerance, and the implementation
/// preserves the scalar accumulation order so in practice results are
/// bit-identical there too (see docs/KERNELS.md). Switching ISA mid-run is
/// only meant for tests/benches via SetActiveIsa().

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// Defined when the AVX2/AVX-512 kernel backends are compiled in.
#define VFPS_SIMD_X86 1
#endif

namespace vfps::simd {

/// Instruction-set backends, ordered weakest to widest so callers may
/// compare (`isa >= Isa::kAvx2`).
enum class Isa : int {
  kScalar = 0,  ///< portable reference path (always available)
  kAvx2 = 1,    ///< 4 x 64-bit lanes (requires AVX2)
  kAvx512 = 2,  ///< 8 x 64-bit lanes (requires AVX-512 F + DQ)
};

/// Stable lowercase name ("scalar", "avx2", "avx512") for metrics labels,
/// bench row names, and logs.
const char* IsaName(Isa isa);

/// Widest ISA this build AND this CPU support, ignoring every override.
Isa DetectCpuIsa();

/// DetectCpuIsa() unless the `VFPS_FORCE_SCALAR` environment variable is set
/// to a non-empty value other than "0". Uncached — reads the environment on
/// every call (tests use this to verify the override; hot paths go through
/// ActiveIsa()).
Isa ResolveIsa();

/// The ISA the dispatched kernels use right now. First call caches
/// ResolveIsa(); later calls are one relaxed atomic load. SetActiveIsa()
/// replaces the cached value.
Isa ActiveIsa();

/// \brief Pin dispatch to `isa`, clamped to DetectCpuIsa() (asking for a
/// backend the host cannot run selects the widest one it can). Returns the
/// ISA actually installed. Intended for tests and benches that must drive a
/// specific path; production code should rely on the environment override.
/// Not synchronized with in-flight kernels — switch only between operations.
Isa SetActiveIsa(Isa isa);

}  // namespace vfps::simd

#endif  // VFPS_SIMD_SIMD_H_
