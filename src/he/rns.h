#ifndef VFPS_HE_RNS_H_
#define VFPS_HE_RNS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "he/ntt.h"

namespace vfps::he {

/// \brief Residue number system context: the ciphertext modulus
/// Q = q_0 * q_1 * ... with NTT tables per prime.
///
/// At most two primes are supported so that CRT composition fits in 128-bit
/// integers. The additive CKKS of the selection protocol uses one (see
/// CkksParams); the two-prime composition remains for contexts built with
/// two, which several tests pin.
class RnsContext {
 public:
  /// \param n ring degree (power of two).
  /// \param prime_bits bit width of each RNS prime (1 or 2 entries, <= 59).
  static Result<std::shared_ptr<const RnsContext>> Create(
      size_t n, const std::vector<int>& prime_bits);

  size_t n() const { return n_; }
  size_t num_primes() const { return primes_.size(); }
  const std::vector<uint64_t>& primes() const { return primes_; }
  uint64_t prime(size_t i) const { return primes_[i]; }
  const NttTables& ntt(size_t i) const { return ntt_[i]; }

  /// Barrett-ready modulus for prime i (division-free pointwise arithmetic).
  const Modulus& modulus(size_t i) const { return ntt_[i].modulus(); }

  /// Q as a long double (used only for headroom checks, never for arithmetic).
  long double modulus_approx() const { return q_approx_; }

  /// q_0^{-1} mod q_1, cached for CRT composition (two-prime contexts only),
  /// with its Shoup companion for division-free multiplication.
  uint64_t crt_q0_inv_q1() const { return crt_q0_inv_q1_; }
  uint64_t crt_q0_inv_q1_shoup() const { return crt_q0_inv_q1_shoup_; }

 private:
  RnsContext() = default;
  size_t n_ = 0;
  std::vector<uint64_t> primes_;
  std::vector<NttTables> ntt_;
  long double q_approx_ = 0.0L;
  uint64_t crt_q0_inv_q1_ = 0;
  uint64_t crt_q0_inv_q1_shoup_ = 0;
};

/// \brief Ring element in RNS representation: one residue vector of length n
/// per prime. `ntt_form` tracks whether the residues are in evaluation form.
struct RnsPoly {
  std::vector<std::vector<uint64_t>> residues;
  bool ntt_form = false;

  size_t num_primes() const { return residues.size(); }
  size_t n() const { return residues.empty() ? 0 : residues[0].size(); }
};

/// Fresh zero polynomial (coefficient form).
RnsPoly ZeroPoly(const RnsContext& ctx);

/// \brief Resize `p` to the context's shape without zero-filling live data.
/// Used by the *Into sampling variants to reuse scratch buffers: callers must
/// treat the previous contents as garbage (every component is overwritten by
/// the samplers below).
void ResizePoly(const RnsContext& ctx, RnsPoly* p);

/// Uniform element of R_Q (directly usable in either form; sampled per prime).
RnsPoly SampleUniform(const RnsContext& ctx, Rng* rng);

/// Ternary secret {-1, 0, 1}, each coefficient drawn as
/// rng->NextBounded(3) - 1; returned in coefficient form.
RnsPoly SampleTernary(const RnsContext& ctx, Rng* rng);

/// \brief Centered discrete gaussian error; coefficient form.
///
/// Each coefficient is round(N(0, sigma^2)), drawn from a 63-bit cumulative
/// distribution table with one rng->Next() per coefficient: the top bit is
/// the sign, the low 63 bits select |v| by a branchless table scan. The
/// table ends at GaussianTailBound(sigma); the rounded normal's mass past it
/// is below 2^-64 and is cut.
RnsPoly SampleGaussian(const RnsContext& ctx, Rng* rng, double sigma = 3.2);

/// Largest |v| SampleGaussian draws for this sigma (29 for sigma = 3.2).
int64_t GaussianTailBound(double sigma);

/// \brief Allocation-free variants writing into an existing polynomial
/// (resized to the context's shape; all components overwritten). Each
/// consumes the Rng identically to its allocating counterpart, so swapping
/// one for the other never perturbs a deterministic randomness stream.
void SampleTernaryInto(const RnsContext& ctx, Rng* rng, RnsPoly* out);
void SampleGaussianInto(const RnsContext& ctx, Rng* rng, RnsPoly* out,
                        double sigma = 3.2);

/// a += b (must be in the same form).
void AddInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b);
/// a = -a.
void NegateInPlace(const RnsContext& ctx, RnsPoly* a);
/// a *= b pointwise (both must be in NTT form).
void MulPointwiseInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b);

/// Transform to evaluation (NTT) form; no-op if already there.
void ToNtt(const RnsContext& ctx, RnsPoly* a);
/// Transform to coefficient form; no-op if already there.
void FromNtt(const RnsContext& ctx, RnsPoly* a);

/// \brief CRT-compose the residues of coefficient `idx` into the
/// non-negative representative in [0, Q) (Q = product of the poly's primes).
unsigned __int128 ComposeCoeffU128(const RnsContext& ctx, const RnsPoly& poly,
                                   size_t idx);

/// \brief CRT-compose the residues of coefficient `idx` and recenter to a
/// signed value in (-Q/2, Q/2], returned as a double (lossy for huge values,
/// which is fine: CKKS decode divides by the scale immediately).
double ComposeCoeffToDouble(const RnsContext& ctx, const RnsPoly& poly,
                            size_t idx);

}  // namespace vfps::he

#endif  // VFPS_HE_RNS_H_
