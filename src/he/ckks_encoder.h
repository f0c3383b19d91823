#ifndef VFPS_HE_CKKS_ENCODER_H_
#define VFPS_HE_CKKS_ENCODER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "he/rns.h"

namespace vfps::he {

/// \brief CKKS canonical-embedding encoder.
///
/// Encodes a vector of up to n/2 real values into a plaintext polynomial of
/// Z_Q[X]/(X^n + 1) such that the polynomial evaluated at the odd powers of
/// the primitive 2n-th complex root of unity reproduces the values times the
/// scale. Both directions run in O(n log n) via one radix-2 FFT:
///
///   encode:  pad values to length n, FFT, twist by w^{-k}, take (2/n)*Re,
///            multiply by the scale, round to integers, map to RNS.
///   decode:  CRT-compose coefficients, twist by w^k, inverse FFT, divide by
///            the scale, take the first n/2 real parts.
///
/// The FFT runs over split real/imaginary arrays with explicit real
/// arithmetic in the operation order of the std::complex formulation it
/// replaced, and the file is compiled with -ffp-contract=off: Encode and
/// Decode are bit-identical to that formulation in every build
/// (docs/KERNELS.md, "CKKS encoder FFT").
class CkksEncoder {
 public:
  static Result<CkksEncoder> Create(std::shared_ptr<const RnsContext> ctx);

  size_t slot_count() const { return ctx_->n() / 2; }

  /// \brief Encode at most slot_count() values with the given scale. The
  /// result is returned in NTT (evaluation) form, ready for pointwise ops.
  /// Fails if any rounded coefficient would overflow the 62-bit safety bound.
  /// Values beyond `values.size()` implicitly encode as zero (the unused
  /// slots of a partially-filled ciphertext are zero-masked by construction).
  /// Accepts a span so batched callers can encode sub-ranges without copying.
  Result<RnsPoly> Encode(std::span<const double> values, double scale) const;

  /// \brief Encode like Encode, but leave the plaintext in coefficient form
  /// in caller-owned `out` (resized to the context's shape; every residue
  /// is overwritten, and on error the contents are unspecified). The
  /// encrypt path adds its noise here before a single NTT.
  Status EncodeCoeffs(std::span<const double> values, double scale,
                      RnsPoly* out) const;

  /// \brief Decode `count` values from a plaintext polynomial at the given
  /// scale. Accepts either form (transforms a copy if needed).
  Result<std::vector<double>> Decode(const RnsPoly& poly, double scale,
                                     size_t count) const;

 private:
  explicit CkksEncoder(std::shared_ptr<const RnsContext> ctx)
      : ctx_(std::move(ctx)) {}

  // In-place radix-2 FFT of (re, im), each of length n, whose input is
  // already in bit-reversed order; forward uses e^{-2*pi*i/len} roots, the
  // inverse their conjugates (unnormalized).
  template <bool kInverse>
  void Fft(double* re, double* im) const;

  std::shared_ptr<const RnsContext> ctx_;
  // Twist factors w^k = exp(i*pi*k/n), k in [0, n), split into cos / sin.
  std::vector<double> twist_re_;
  std::vector<double> twist_im_;
  // Bit-reversal permutation for the FFT.
  std::vector<size_t> bit_rev_;
  // Forward FFT roots, stage by stage: the stage of half-length h uses
  // e^{-2*pi*i*k/(2h)} for k < h, stored contiguously at offset h - 1.
  std::vector<double> root_re_;
  std::vector<double> root_im_;
};

}  // namespace vfps::he

#endif  // VFPS_HE_CKKS_ENCODER_H_
