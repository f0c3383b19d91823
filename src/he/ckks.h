#ifndef VFPS_HE_CKKS_H_
#define VFPS_HE_CKKS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "common/result.h"
#include "he/ckks_encoder.h"
#include "he/rns.h"

namespace vfps::he {

/// \brief CKKS scheme parameters.
///
/// The scheme is additive-only: the VFPS-SM protocol encrypts, sums and
/// decrypts, and never multiplies ciphertexts, so one level suffices. The
/// defaults (n = 4096, one 59-bit prime, scale 2^40) leave q / 2 ~ 2^58, i.e.
/// 2^18 / P of plaintext magnitude per party in a P-party sum (see
/// CkksContext::SummableMagnitude), at log q = 59, well inside the 128-bit
/// HE-standard bound for n = 4096 (log q <= 109).
struct CkksParams {
  size_t poly_degree = 4096;
  std::vector<int> prime_bits = {59};
  double scale = 1099511627776.0;  // 2^40
  double noise_sigma = 3.2;
};

/// Secret key: a ternary ring element (stored in NTT form).
struct CkksSecretKey {
  RnsPoly s;
};

/// Public key (b, a) with b = -(a*s + e); both in NTT form.
struct CkksPublicKey {
  RnsPoly b;
  RnsPoly a;
};

/// RLWE ciphertext (c0, c1); decryption computes c0 + c1 * s.
struct CkksCiphertext {
  RnsPoly c0;
  RnsPoly c1;
  double scale = 0.0;
};

/// \brief CKKS context: validated parameters, RNS base, encoder, and all
/// scheme operations. Immutable and shareable across threads.
class CkksContext {
 public:
  static Result<std::shared_ptr<const CkksContext>> Create(
      const CkksParams& params);

  const CkksParams& params() const { return params_; }
  const RnsContext& rns() const { return *rns_; }
  const CkksEncoder& encoder() const { return *encoder_; }
  size_t slot_count() const { return encoder_->slot_count(); }

  CkksSecretKey GenerateSecretKey(Rng* rng) const;
  CkksPublicKey GeneratePublicKey(const CkksSecretKey& sk, Rng* rng) const;

  /// Decrypt to the plaintext polynomial (NTT form); decode separately.
  RnsPoly Decrypt(const CkksSecretKey& sk, const CkksCiphertext& ct) const;

  /// Encode + encrypt at most slot_count() doubles. Takes a span so batched
  /// callers can encrypt slot-count()-sized windows of a longer vector
  /// without copying; slots past `values.size()` encode as zero. Computes
  /// c0 = b*u + NTT(m + e0) and c1 = a*u + e1, drawing u, e0, e1 from `rng`
  /// in that order.
  Result<CkksCiphertext> EncryptVector(const CkksPublicKey& pk,
                                       std::span<const double> values,
                                       Rng* rng) const;
  /// Brace-list convenience (std::span lacks the initializer_list
  /// constructor until C++26).
  Result<CkksCiphertext> EncryptVector(const CkksPublicKey& pk,
                                       std::initializer_list<double> values,
                                       Rng* rng) const {
    return EncryptVector(pk, std::span<const double>(values.begin(), values.size()),
                         rng);
  }

  /// Decrypt + decode `count` doubles.
  Result<std::vector<double>> DecryptVector(const CkksSecretKey& sk,
                                            const CkksCiphertext& ct,
                                            size_t count) const;

  /// Homomorphic ciphertext addition x += y (scales must match).
  Status AddInPlaceCt(CkksCiphertext* x, const CkksCiphertext& y) const;

  /// \brief Largest |value| a slot may hold so that a Sum of `addends`
  /// fresh encryptions still decrypts correctly.
  ///
  /// A slot vector of magnitude at most V encodes to coefficients of
  /// magnitude at most scale * V, and a fresh ciphertext decrypts with noise
  /// below E = (2n + 1) * B, B = GaussianTailBound(noise_sigma). The sum of
  /// `addends` such plaintexts stays in (-Q/2, Q/2], where the decoder's
  /// centered lift is exact, while
  ///
  ///   addends * (scale * V + E + 1) <= Q / 2,
  ///
  /// so the limit is (Q / (2 * addends) - E - 1) / scale, shrunk by a
  /// relative 2^-20 for the floating-point error of the encoding FFT and
  /// capped at the encoder's own bound. Beyond it a coefficient of the sum
  /// wraps modulo Q and decodes to an unrelated value.
  double SummableMagnitude(size_t addends) const;

  /// Ciphertext wire format; size feeds the simulated network's byte meter.
  /// Layout: scale (f64), form byte (0 = coefficient, 1 = NTT), then per
  /// component a prime count and one length-prefixed residue vector per
  /// prime.
  void SerializeCiphertext(const CkksCiphertext& ct, BinaryWriter* out) const;
  /// \brief Parse one ciphertext, accepting only the shape this context
  /// produces: the scale equal to params().scale, a form byte of 0 or 1,
  /// every prime of the base, n residues each, every residue below its
  /// prime. Anything else, truncation included, is a ProtocolError; a
  /// payload that frames correctly passes the channel CRC, so this is the
  /// check that keeps hostile bytes out of the ring arithmetic.
  Result<CkksCiphertext> DeserializeCiphertext(BinaryReader* in) const;

  /// Serialized ciphertext size in bytes for the current parameters.
  size_t CiphertextByteSize() const;

 private:
  CkksContext() = default;
  CkksParams params_;
  std::shared_ptr<const RnsContext> rns_;
  std::unique_ptr<CkksEncoder> encoder_;
};

}  // namespace vfps::he

#endif  // VFPS_HE_CKKS_H_
