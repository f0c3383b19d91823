#ifndef VFPS_HE_SIMD_MATH_H_
#define VFPS_HE_SIMD_MATH_H_

/// \file
/// \brief Internal AVX2/AVX-512 building blocks for the modular-arithmetic
/// kernels: 64x64-bit low/high multiplies synthesized from 32-bit lane
/// products, unsigned 64-bit compares, and conditional subtraction.
///
/// Everything here is exact unsigned integer arithmetic, so any kernel
/// composed from these helpers in the same operation order as its scalar
/// counterpart is bit-identical to it. The helpers carry per-function target
/// attributes (`VFPS_TARGET_AVX2` / `VFPS_TARGET_AVX512`) so they compile on
/// any x86-64 toolchain regardless of -march; callers must gate on
/// vfps::simd::ActiveIsa() before entering a vector path.

#include "simd/simd.h"

#ifdef VFPS_SIMD_X86

#include <immintrin.h>

#include <cstdint>

/// Marks a function compiled for AVX2 regardless of the translation unit's
/// -march flags. The compiler refuses to inline across mismatched targets,
/// which is exactly the containment runtime dispatch needs.
#define VFPS_TARGET_AVX2 __attribute__((target("avx2")))
/// AVX-512 (F + DQ) counterpart of VFPS_TARGET_AVX2.
#define VFPS_TARGET_AVX512 __attribute__((target("avx512f,avx512dq")))

namespace vfps::he::detail {

// ---------------------------------------------------------------------------
// AVX2: 4 x uint64 lanes
// ---------------------------------------------------------------------------

/// Low 64 bits of the lane-wise product a * b (AVX2 has no 64-bit multiply,
/// so it is assembled from three 32x32->64 partial products).
VFPS_TARGET_AVX2 inline __m256i Avx2MulLo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

/// High 64 bits of the lane-wise unsigned product a * b, via the textbook
/// four-partial-product schoolbook with explicit carry words:
///   u = a_hi*b_lo + hi32(a_lo*b_lo)
///   v = a_lo*b_hi + lo32(u)
///   hi = a_hi*b_hi + hi32(u) + hi32(v)
VFPS_TARGET_AVX2 inline __m256i Avx2MulHi64(__m256i a, __m256i b) {
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i u =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_srli_epi64(lo_lo, 32));
  const __m256i v = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                     _mm256_and_si256(u, mask32));
  return _mm256_add_epi64(
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b_hi), _mm256_srli_epi64(u, 32)),
      _mm256_srli_epi64(v, 32));
}

/// Lane mask (all-ones / all-zeros per 64-bit lane) for unsigned a < b.
/// AVX2 only has a signed 64-bit compare, so both sides are biased by 2^63.
VFPS_TARGET_AVX2 inline __m256i Avx2CmpLtU64(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<int64_t>(1ULL << 63));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                            _mm256_xor_si256(a, bias));
}

/// Lane-wise conditional subtraction: a >= b ? a - b : a.
VFPS_TARGET_AVX2 inline __m256i Avx2CSub(__m256i a, __m256i b) {
  const __m256i sub = _mm256_sub_epi64(a, b);
  return _mm256_blendv_epi8(sub, a, Avx2CmpLtU64(a, b));
}

/// Lane-wise MulModShoupLazy: a * w - hi64(a * w_shoup) * q, the [0, 2q)
/// lazy Shoup product (valid for any a, with w < q < 2^62). Exactly the
/// scalar MulModShoupLazy per lane.
VFPS_TARGET_AVX2 inline __m256i Avx2MulModShoupLazy(__m256i a, __m256i w,
                                                    __m256i w_shoup,
                                                    __m256i q) {
  const __m256i hi = Avx2MulHi64(a, w_shoup);
  return _mm256_sub_epi64(Avx2MulLo64(a, w), Avx2MulLo64(hi, q));
}

// ---------------------------------------------------------------------------
// AVX-512 (F + DQ): 8 x uint64 lanes
// ---------------------------------------------------------------------------

/// Low 64 bits of the lane-wise product (native under AVX-512DQ).
VFPS_TARGET_AVX512 inline __m512i Avx512MulLo64(__m512i a, __m512i b) {
  return _mm512_mullo_epi64(a, b);
}

/// High 64 bits of the lane-wise unsigned product (same schoolbook carry
/// chain as Avx2MulHi64; AVX-512 still has no 64-bit multiply-high).
VFPS_TARGET_AVX512 inline __m512i Avx512MulHi64(__m512i a, __m512i b) {
  const __m512i mask32 = _mm512_set1_epi64(0xFFFFFFFFLL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i lo_lo = _mm512_mul_epu32(a, b);
  const __m512i u =
      _mm512_add_epi64(_mm512_mul_epu32(a_hi, b), _mm512_srli_epi64(lo_lo, 32));
  const __m512i v = _mm512_add_epi64(_mm512_mul_epu32(a, b_hi),
                                     _mm512_and_si512(u, mask32));
  return _mm512_add_epi64(
      _mm512_add_epi64(_mm512_mul_epu32(a_hi, b_hi), _mm512_srli_epi64(u, 32)),
      _mm512_srli_epi64(v, 32));
}

/// Lane-wise conditional subtraction a >= b ? a - b : a. min_epu64 makes
/// this branch- and mask-free: the subtraction wraps above a exactly when
/// a < b.
VFPS_TARGET_AVX512 inline __m512i Avx512CSub(__m512i a, __m512i b) {
  return _mm512_min_epu64(a, _mm512_sub_epi64(a, b));
}

/// Lane-wise MulModShoupLazy (see Avx2MulModShoupLazy).
VFPS_TARGET_AVX512 inline __m512i Avx512MulModShoupLazy(__m512i a, __m512i w,
                                                        __m512i w_shoup,
                                                        __m512i q) {
  const __m512i hi = Avx512MulHi64(a, w_shoup);
  return _mm512_sub_epi64(Avx512MulLo64(a, w), Avx512MulLo64(hi, q));
}

}  // namespace vfps::he::detail

#endif  // VFPS_SIMD_X86

#endif  // VFPS_HE_SIMD_MATH_H_
