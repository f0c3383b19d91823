#ifndef VFPS_HE_POLY_SIMD_H_
#define VFPS_HE_POLY_SIMD_H_

/// \file
/// \brief Dispatched residue-vector kernels behind the RnsPoly operations.
///
/// Every operation comes in two spellings: `XxxVec` runs the widest backend
/// simd::ActiveIsa() allows (scalar, AVX2, or AVX-512), and `XxxScalar` is
/// the always-built portable reference. All backends are exact unsigned
/// integer arithmetic in the same operation order, so Vec and Scalar are
/// bit-identical for every input — the property tests/test_simd_differential
/// fuzzes. Preconditions follow the scalar originals in modarith.h: moduli
/// q < 2^62, fully reduced inputs in [0, q) unless a lazy range is called
/// out explicitly.

#include <cstddef>
#include <cstdint>

#include "he/modarith.h"

namespace vfps::he::detail {

/// a[i] = (a[i] + b[i]) mod q, inputs in [0, q).
void AddModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);
/// Scalar reference for AddModVec.
void AddModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);

/// a[i] = (q - a[i]) mod q (zero stays zero), inputs in [0, q).
void NegateModVec(uint64_t* a, size_t n, uint64_t q);
/// Scalar reference for NegateModVec.
void NegateModScalar(uint64_t* a, size_t n, uint64_t q);

/// a[i] = a[i] * b[i] mod q via the full 128-bit Barrett reduction. Valid
/// for any 64-bit inputs (the pointwise product path feeds reduced residues).
void MulModBarrettVec(uint64_t* a, const uint64_t* b, size_t n,
                      const Modulus& m);
/// Scalar reference for MulModBarrettVec.
void MulModBarrettScalar(uint64_t* a, const uint64_t* b, size_t n,
                         const Modulus& m);

}  // namespace vfps::he::detail

#endif  // VFPS_HE_POLY_SIMD_H_
