#include "he/ckks.h"

#include <algorithm>

#include "common/macros.h"

namespace vfps::he {

Result<std::shared_ptr<const CkksContext>> CkksContext::Create(
    const CkksParams& params) {
  if (params.poly_degree < 8) {
    return Status::InvalidArgument("CkksContext: poly_degree too small");
  }
  if (!(params.noise_sigma > 0.0)) {
    return Status::InvalidArgument("CkksContext: noise_sigma must be positive");
  }
  for (int bits : params.prime_bits) {
    if (bits < 30 || bits > 59) {
      return Status::InvalidArgument(
          "CkksContext: prime bits must be in [30, 59]");
    }
  }
  auto ctx = std::shared_ptr<CkksContext>(new CkksContext());
  ctx->params_ = params;
  VFPS_ASSIGN_OR_RETURN(ctx->rns_,
                        RnsContext::Create(params.poly_degree, params.prime_bits));
  VFPS_ASSIGN_OR_RETURN(auto encoder, CkksEncoder::Create(ctx->rns_));
  ctx->encoder_ = std::make_unique<CkksEncoder>(std::move(encoder));
  return std::shared_ptr<const CkksContext>(ctx);
}

CkksSecretKey CkksContext::GenerateSecretKey(Rng* rng) const {
  CkksSecretKey sk;
  sk.s = SampleTernary(*rns_, rng);
  ToNtt(*rns_, &sk.s);
  return sk;
}

CkksPublicKey CkksContext::GeneratePublicKey(const CkksSecretKey& sk,
                                             Rng* rng) const {
  CkksPublicKey pk;
  pk.a = SampleUniform(*rns_, rng);  // already NTT form
  RnsPoly e = SampleGaussian(*rns_, rng, params_.noise_sigma);
  ToNtt(*rns_, &e);
  // b = -(a*s + e)
  pk.b = pk.a;
  MulPointwiseInPlace(*rns_, &pk.b, sk.s);
  AddInPlace(*rns_, &pk.b, e);
  NegateInPlace(*rns_, &pk.b);
  return pk;
}

Result<CkksCiphertext> CkksContext::EncryptVector(
    const CkksPublicKey& pk, std::span<const double> values,
    Rng* rng) const {
  // Per-thread scratch for the plaintext and the three masking polynomials:
  // every component is overwritten by the encoder and the samplers, so
  // reuse is invisible to determinism and to callers, and saves four
  // n * num_primes allocations per encryption.
  thread_local RnsPoly m, u, e0, e1;
  VFPS_RETURN_NOT_OK(encoder_->EncodeCoeffs(values, params_.scale, &m));
  SampleTernaryInto(*rns_, rng, &u);
  ToNtt(*rns_, &u);
  // e0 joins the plaintext in coefficient form: the NTT is linear mod q, so
  // one transform of m + e0 equals NTT(m) + NTT(e0) exactly.
  SampleGaussianInto(*rns_, rng, &e0, params_.noise_sigma);
  AddInPlace(*rns_, &m, e0);
  ToNtt(*rns_, &m);
  SampleGaussianInto(*rns_, rng, &e1, params_.noise_sigma);
  ToNtt(*rns_, &e1);

  CkksCiphertext ct;
  ct.scale = params_.scale;
  // c0 = b*u + (m + e0)
  ct.c0 = pk.b;
  MulPointwiseInPlace(*rns_, &ct.c0, u);
  AddInPlace(*rns_, &ct.c0, m);
  // c1 = a*u + e1
  ct.c1 = pk.a;
  MulPointwiseInPlace(*rns_, &ct.c1, u);
  AddInPlace(*rns_, &ct.c1, e1);
  return ct;
}

RnsPoly CkksContext::Decrypt(const CkksSecretKey& sk,
                             const CkksCiphertext& ct) const {
  // m' = c0 + c1 * s
  RnsPoly m = ct.c1;
  MulPointwiseInPlace(*rns_, &m, sk.s);
  AddInPlace(*rns_, &m, ct.c0);
  return m;
}

Result<std::vector<double>> CkksContext::DecryptVector(
    const CkksSecretKey& sk, const CkksCiphertext& ct, size_t count) const {
  RnsPoly pt = Decrypt(sk, ct);
  return encoder_->Decode(pt, ct.scale, count);
}

Status CkksContext::AddInPlaceCt(CkksCiphertext* x,
                                 const CkksCiphertext& y) const {
  if (x->scale != y.scale) {
    return Status::InvalidArgument("CKKS Add: scale mismatch");
  }
  AddInPlace(*rns_, &x->c0, y.c0);
  AddInPlace(*rns_, &x->c1, y.c1);
  return Status::OK();
}

double CkksContext::SummableMagnitude(size_t addends) const {
  const size_t terms = std::max<size_t>(addends, 1);
  const long double noise =
      static_cast<long double>(2 * rns_->n() + 1) *
      static_cast<long double>(GaussianTailBound(params_.noise_sigma));
  const long double per_term =
      std::min(rns_->modulus_approx() / (2.0L * terms) - noise - 1.0L,
               static_cast<long double>(encoder_->coeff_bound()));
  if (per_term <= 0.0L) return 0.0;
  return static_cast<double>(per_term / params_.scale) * (1.0 - 0x1p-20);
}

void CkksContext::SerializeCiphertext(const CkksCiphertext& ct,
                                      BinaryWriter* out) const {
  out->WriteDouble(ct.scale);
  out->WriteU8(ct.c0.ntt_form ? 1 : 0);
  for (const RnsPoly* poly : {&ct.c0, &ct.c1}) {
    out->WriteU32(static_cast<uint32_t>(poly->num_primes()));
    for (const auto& residue : poly->residues) out->WriteU64Vec(residue);
  }
}

namespace {
// A truncated payload is as malformed as any other: report it in the same
// status code as the shape checks below.
template <typename T>
Result<T> WireField(Result<T> field) {
  if (!field.ok()) {
    return Status::ProtocolError("CKKS deserialize: " +
                                 field.status().message());
  }
  return field;
}
}  // namespace

Result<CkksCiphertext> CkksContext::DeserializeCiphertext(
    BinaryReader* in) const {
  CkksCiphertext ct;
  VFPS_ASSIGN_OR_RETURN(ct.scale, WireField(in->ReadDouble()));
  if (!(ct.scale == params_.scale)) {  // also rejects NaN
    return Status::ProtocolError("CKKS deserialize: scale mismatch");
  }
  VFPS_ASSIGN_OR_RETURN(uint8_t ntt_form, WireField(in->ReadU8()));
  if (ntt_form > 1) {
    return Status::ProtocolError("CKKS deserialize: bad form byte");
  }
  for (RnsPoly* poly : {&ct.c0, &ct.c1}) {
    VFPS_ASSIGN_OR_RETURN(uint32_t num_primes, WireField(in->ReadU32()));
    if (num_primes != rns_->num_primes()) {
      return Status::ProtocolError("CKKS deserialize: prime count mismatch");
    }
    poly->residues.resize(num_primes);
    for (uint32_t i = 0; i < num_primes; ++i) {
      VFPS_ASSIGN_OR_RETURN(poly->residues[i], WireField(in->ReadU64Vec()));
      if (poly->residues[i].size() != rns_->n()) {
        return Status::ProtocolError("CKKS deserialize: degree mismatch");
      }
      const uint64_t q = rns_->prime(i);
      bool reduced = true;
      for (uint64_t r : poly->residues[i]) reduced &= r < q;
      if (!reduced) {
        return Status::ProtocolError(
            "CKKS deserialize: residue not below its prime");
      }
    }
    poly->ntt_form = (ntt_form != 0);
  }
  return ct;
}

size_t CkksContext::CiphertextByteSize() const {
  // scale + form byte + 2 polys * (prime-count header + per-prime vectors).
  return sizeof(double) + 1 +
         2 * (sizeof(uint32_t) +
              rns_->num_primes() * (sizeof(uint32_t) + rns_->n() * sizeof(uint64_t)));
}

}  // namespace vfps::he
