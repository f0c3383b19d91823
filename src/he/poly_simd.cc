// Dispatched residue-vector kernels (see poly_simd.h for the contract).
//
// Layout of this file: scalar references first (the oracle the differential
// test compares against), then the AVX2 and AVX-512 backends composed from
// the exact helpers in simd_math.h, then the thin ActiveIsa() dispatchers.
// Every backend performs the same unsigned 64-bit operations in the same
// order as its scalar reference, so results are bit-identical.

#include "he/poly_simd.h"

#include "he/simd_math.h"
#include "simd/simd.h"

namespace vfps::he::detail {

// ---------------------------------------------------------------------------
// Scalar references
// ---------------------------------------------------------------------------

void AddModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

void NegateModScalar(uint64_t* a, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = NegateMod(a[j], q);
}

void MulModBarrettScalar(uint64_t* a, const uint64_t* b, size_t n,
                         const Modulus& m) {
  for (size_t j = 0; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

#ifdef VFPS_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 backends
// ---------------------------------------------------------------------------

namespace {

VFPS_TARGET_AVX2 void AddModAvx2(uint64_t* a, const uint64_t* b, size_t n,
                                 uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j),
                        Avx2CSub(_mm256_add_epi64(va, vb), vq));
  }
  for (; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

VFPS_TARGET_AVX2 void NegateModAvx2(uint64_t* a, size_t n, uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  const __m256i zero = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i is_zero = _mm256_cmpeq_epi64(va, zero);
    const __m256i neg = _mm256_sub_epi64(vq, va);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j),
                        _mm256_andnot_si256(is_zero, neg));
  }
  for (; j < n; ++j) a[j] = NegateMod(a[j], q);
}

// Lane-wise BarrettReduce128 of the product a * b — the same carry chain as
// the scalar version: carry words are recovered with unsigned compares
// (sum < addend) and folded in as 0/1 by subtracting the all-ones mask.
VFPS_TARGET_AVX2 void MulModBarrettAvx2(uint64_t* a, const uint64_t* b,
                                        size_t n, const Modulus& m) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(m.value));
  const __m256i r_lo =
      _mm256_set1_epi64x(static_cast<int64_t>(m.const_ratio[0]));
  const __m256i r_hi =
      _mm256_set1_epi64x(static_cast<int64_t>(m.const_ratio[1]));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i z_lo = Avx2MulLo64(va, vb);
    const __m256i z_hi = Avx2MulHi64(va, vb);
    const __m256i carry = Avx2MulHi64(z_lo, r_lo);
    const __m256i m1_lo = _mm256_add_epi64(Avx2MulLo64(z_lo, r_hi), carry);
    __m256i m1_hi = Avx2MulHi64(z_lo, r_hi);
    m1_hi = _mm256_sub_epi64(m1_hi, Avx2CmpLtU64(m1_lo, carry));
    const __m256i m2_lo = _mm256_add_epi64(Avx2MulLo64(z_hi, r_lo), m1_lo);
    __m256i m2_hi = Avx2MulHi64(z_hi, r_lo);
    m2_hi = _mm256_sub_epi64(m2_hi, Avx2CmpLtU64(m2_lo, m1_lo));
    const __m256i q_est = _mm256_add_epi64(
        _mm256_add_epi64(Avx2MulLo64(z_hi, r_hi), m1_hi), m2_hi);
    const __m256i r = _mm256_sub_epi64(z_lo, Avx2MulLo64(q_est, vq));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), Avx2CSub(r, vq));
  }
  for (; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

// ---------------------------------------------------------------------------
// AVX-512 backends
// ---------------------------------------------------------------------------

VFPS_TARGET_AVX512 void AddModAvx512(uint64_t* a, const uint64_t* b, size_t n,
                                     uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __m512i vb = _mm512_loadu_si512(b + j);
    _mm512_storeu_si512(a + j, Avx512CSub(_mm512_add_epi64(va, vb), vq));
  }
  for (; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

VFPS_TARGET_AVX512 void NegateModAvx512(uint64_t* a, size_t n, uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __mmask8 nz = _mm512_test_epi64_mask(va, va);
    _mm512_storeu_si512(a + j, _mm512_maskz_sub_epi64(nz, vq, va));
  }
  for (; j < n; ++j) a[j] = NegateMod(a[j], q);
}

VFPS_TARGET_AVX512 void MulModBarrettAvx512(uint64_t* a, const uint64_t* b,
                                            size_t n, const Modulus& m) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(m.value));
  const __m512i r_lo = _mm512_set1_epi64(static_cast<int64_t>(m.const_ratio[0]));
  const __m512i r_hi = _mm512_set1_epi64(static_cast<int64_t>(m.const_ratio[1]));
  const __m512i one = _mm512_set1_epi64(1);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __m512i vb = _mm512_loadu_si512(b + j);
    const __m512i z_lo = Avx512MulLo64(va, vb);
    const __m512i z_hi = Avx512MulHi64(va, vb);
    const __m512i carry = Avx512MulHi64(z_lo, r_lo);
    const __m512i m1_lo = _mm512_add_epi64(Avx512MulLo64(z_lo, r_hi), carry);
    __m512i m1_hi = Avx512MulHi64(z_lo, r_hi);
    m1_hi = _mm512_mask_add_epi64(m1_hi, _mm512_cmplt_epu64_mask(m1_lo, carry),
                                  m1_hi, one);
    const __m512i m2_lo = _mm512_add_epi64(Avx512MulLo64(z_hi, r_lo), m1_lo);
    __m512i m2_hi = Avx512MulHi64(z_hi, r_lo);
    m2_hi = _mm512_mask_add_epi64(m2_hi, _mm512_cmplt_epu64_mask(m2_lo, m1_lo),
                                  m2_hi, one);
    const __m512i q_est = _mm512_add_epi64(
        _mm512_add_epi64(Avx512MulLo64(z_hi, r_hi), m1_hi), m2_hi);
    const __m512i r = _mm512_sub_epi64(z_lo, Avx512MulLo64(q_est, vq));
    _mm512_storeu_si512(a + j, Avx512CSub(r, vq));
  }
  for (; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

}  // namespace

#endif  // VFPS_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

void AddModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      AddModAvx512(a, b, n, q);
      return;
    case simd::Isa::kAvx2:
      AddModAvx2(a, b, n, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  AddModScalar(a, b, n, q);
}

void NegateModVec(uint64_t* a, size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      NegateModAvx512(a, n, q);
      return;
    case simd::Isa::kAvx2:
      NegateModAvx2(a, n, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  NegateModScalar(a, n, q);
}

void MulModBarrettVec(uint64_t* a, const uint64_t* b, size_t n,
                      const Modulus& m) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      MulModBarrettAvx512(a, b, n, m);
      return;
    case simd::Isa::kAvx2:
      MulModBarrettAvx2(a, b, n, m);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  MulModBarrettScalar(a, b, n, m);
}

}  // namespace vfps::he::detail
