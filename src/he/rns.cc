#include "common/macros.h"
#include "he/rns.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "he/modarith.h"
#include "he/poly_simd.h"

namespace vfps::he {

Result<std::shared_ptr<const RnsContext>> RnsContext::Create(
    size_t n, const std::vector<int>& prime_bits) {
  if (prime_bits.empty() || prime_bits.size() > 2) {
    return Status::InvalidArgument(
        "RnsContext: 1 or 2 primes supported (CRT uses 128-bit composition)");
  }
  auto ctx = std::shared_ptr<RnsContext>(new RnsContext());
  ctx->n_ = n;
  ctx->q_approx_ = 1.0L;
  uint64_t congruence = 2 * static_cast<uint64_t>(n);
  for (int bits : prime_bits) {
    uint64_t prime = 0;
    // Scan downward, skipping primes already chosen.
    VFPS_ASSIGN_OR_RETURN(prime, GeneratePrime(bits, congruence));
    while (true) {
      bool duplicate = false;
      for (uint64_t p : ctx->primes_) duplicate |= (p == prime);
      if (!duplicate) break;
      // Find the next prime below the duplicate.
      uint64_t candidate = prime - congruence;
      while (!IsPrime(candidate)) {
        if (candidate <= congruence) {
          return Status::NotFound("RnsContext: ran out of distinct primes");
        }
        candidate -= congruence;
      }
      prime = candidate;
    }
    ctx->primes_.push_back(prime);
    VFPS_ASSIGN_OR_RETURN(auto tables, NttTables::Create(n, prime));
    ctx->ntt_.push_back(std::move(tables));
    ctx->q_approx_ *= static_cast<long double>(prime);
  }
  if (ctx->primes_.size() == 2) {
    ctx->crt_q0_inv_q1_ =
        InvMod(ctx->primes_[0] % ctx->primes_[1], ctx->primes_[1]);
    ctx->crt_q0_inv_q1_shoup_ =
        ShoupPrecompute(ctx->crt_q0_inv_q1_, ctx->primes_[1]);
  }
  // Rescale drops the last prime; cache (q_last mod q_i)^{-1} for each
  // retained prime so the hot path never calls InvMod.
  if (ctx->primes_.size() >= 2) {
    const uint64_t q_last = ctx->primes_.back();
    for (size_t i = 0; i + 1 < ctx->primes_.size(); ++i) {
      const uint64_t q = ctx->primes_[i];
      const uint64_t inv = InvMod(q_last % q, q);
      ctx->rescale_inv_.push_back(inv);
      ctx->rescale_inv_shoup_.push_back(ShoupPrecompute(inv, q));
    }
  }
  return std::shared_ptr<const RnsContext>(ctx);
}

RnsPoly ZeroPoly(const RnsContext& ctx) {
  RnsPoly p;
  p.residues.assign(ctx.num_primes(), std::vector<uint64_t>(ctx.n(), 0));
  p.ntt_form = false;
  return p;
}

void ResizePoly(const RnsContext& ctx, RnsPoly* p) {
  p->residues.resize(ctx.num_primes());
  for (auto& r : p->residues) r.resize(ctx.n());
  p->ntt_form = false;
}

RnsPoly SampleUniform(const RnsContext& ctx, Rng* rng) {
  RnsPoly p = ZeroPoly(ctx);
  for (size_t i = 0; i < ctx.num_primes(); ++i) {
    const uint64_t q = ctx.prime(i);
    for (size_t j = 0; j < ctx.n(); ++j) p.residues[i][j] = rng->NextBounded(q);
  }
  // A uniform element is uniform in both bases; mark as NTT form since all
  // uses (the public random polynomial "a") operate there.
  p.ntt_form = true;
  return p;
}

namespace {
// Cumulative distribution of |v| for v = round(N(0, sigma^2)) in units of
// 2^-63: cdf[k] = 2^63 - round(2^63 * P(|v| > k)) for every k whose tail
// rounds to a nonzero count (`bound` entries). Built from erfc, which stays
// accurate in the tail where 1 - erf would cancel. The table is padded to a
// multiple of four with entries no 63-bit value reaches, so the sampler's
// scan runs four independent counters.
struct GaussianCdt {
  double sigma = std::numeric_limits<double>::quiet_NaN();  // none built yet
  size_t bound = 0;
  std::vector<uint64_t> cdf;
};

GaussianCdt BuildGaussianCdt(double sigma) {
  GaussianCdt table;
  table.sigma = sigma;
  const double inv = 1.0 / (sigma * std::sqrt(2.0));
  for (int64_t k = 0;; ++k) {
    const double tail = std::erfc((static_cast<double>(k) + 0.5) * inv);
    const auto count = static_cast<uint64_t>(std::round(std::ldexp(tail, 63)));
    if (count == 0) break;
    table.cdf.push_back((uint64_t{1} << 63) - count);
  }
  table.bound = table.cdf.size();
  while (table.cdf.size() % 4 != 0) {
    table.cdf.push_back(~uint64_t{0});
  }
  return table;
}

// The table for `sigma`, built on first use per thread (every caller in the
// tree passes the same sigma, so this is one build per thread).
const GaussianCdt& GaussianCdtFor(double sigma) {
  thread_local GaussianCdt table;
  if (table.sigma != sigma) table = BuildGaussianCdt(sigma);
  return table;
}
}  // namespace

int64_t GaussianTailBound(double sigma) {
  return static_cast<int64_t>(GaussianCdtFor(sigma).bound);
}

RnsPoly SampleTernary(const RnsContext& ctx, Rng* rng) {
  RnsPoly p = ZeroPoly(ctx);
  SampleTernaryInto(ctx, rng, &p);
  return p;
}

RnsPoly SampleGaussian(const RnsContext& ctx, Rng* rng, double sigma) {
  RnsPoly p = ZeroPoly(ctx);
  SampleGaussianInto(ctx, rng, &p, sigma);
  return p;
}

void SampleTernaryInto(const RnsContext& ctx, Rng* rng, RnsPoly* out) {
  ResizePoly(ctx, out);
  for (size_t j = 0; j < ctx.n(); ++j) {
    // rng->NextBounded(3) inlined: its rejection threshold 2^64 mod 3 = 1
    // rejects only r = 0, so the draws and values are the same, and the
    // constant divisor turns % into a multiply.
    uint64_t r = rng->Next();
    while (r == 0) r = rng->Next();
    const uint64_t t = r % 3;  // the coefficient is t - 1
    // t - 1 mod q without a data-dependent branch: add q when t - 1 wraps.
    const uint64_t wrap = 0 - static_cast<uint64_t>(t == 0);
    for (size_t i = 0; i < ctx.num_primes(); ++i) {
      out->residues[i][j] = (t - 1) + (ctx.prime(i) & wrap);
    }
  }
}

void SampleGaussianInto(const RnsContext& ctx, Rng* rng, RnsPoly* out,
                        double sigma) {
  ResizePoly(ctx, out);
  const std::vector<uint64_t>& cdf = GaussianCdtFor(sigma).cdf;
  const uint64_t* table = cdf.data();
  for (size_t j = 0; j < ctx.n(); ++j) {
    const uint64_t r = rng->Next();
    const uint64_t low = r & ((uint64_t{1} << 63) - 1);
    uint64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
    for (size_t k = 0; k < cdf.size(); k += 4) {
      m0 += low >= table[k] ? 1 : 0;
      m1 += low >= table[k + 1] ? 1 : 0;
      m2 += low >= table[k + 2] ? 1 : 0;
      m3 += low >= table[k + 3] ? 1 : 0;
    }
    const uint64_t mag = (m0 + m1) + (m2 + m3);
    // The top bit is the sign: q - mag when set and mag != 0, else mag,
    // without a data-dependent branch (mag is far below every prime).
    const uint64_t neg = 0 - ((r >> 63) & static_cast<uint64_t>(mag != 0));
    for (size_t i = 0; i < ctx.num_primes(); ++i) {
      out->residues[i][j] = ((mag ^ neg) - neg) + (ctx.prime(i) & neg);
    }
  }
}

void AddInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b) {
  for (size_t i = 0; i < std::min(a->num_primes(), b.num_primes()); ++i) {
    detail::AddModVec(a->residues[i].data(), b.residues[i].data(), ctx.n(),
                      ctx.prime(i));
  }
}

void SubInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b) {
  for (size_t i = 0; i < std::min(a->num_primes(), b.num_primes()); ++i) {
    detail::SubModVec(a->residues[i].data(), b.residues[i].data(), ctx.n(),
                      ctx.prime(i));
  }
}

void NegateInPlace(const RnsContext& ctx, RnsPoly* a) {
  for (size_t i = 0; i < a->num_primes(); ++i) {
    detail::NegateModVec(a->residues[i].data(), ctx.n(), ctx.prime(i));
  }
}

void MulPointwiseInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b) {
  for (size_t i = 0; i < std::min(a->num_primes(), b.num_primes()); ++i) {
    detail::MulModBarrettVec(a->residues[i].data(), b.residues[i].data(),
                             ctx.n(), ctx.modulus(i));
  }
}

void MulScalarInPlace(const RnsContext& ctx, RnsPoly* a, uint64_t scalar) {
  for (size_t i = 0; i < a->num_primes(); ++i) {
    const uint64_t q = ctx.prime(i);
    const uint64_t s = BarrettReduce64(scalar, ctx.modulus(i));
    const uint64_t s_shoup = ShoupPrecompute(s, q);
    detail::MulModShoupVec(a->residues[i].data(), ctx.n(), s, s_shoup, q);
  }
}

void ToNtt(const RnsContext& ctx, RnsPoly* a) {
  if (a->ntt_form) return;
  for (size_t i = 0; i < a->num_primes(); ++i) {
    ctx.ntt(i).Forward(a->residues[i].data());
  }
  a->ntt_form = true;
}

void FromNtt(const RnsContext& ctx, RnsPoly* a) {
  if (!a->ntt_form) return;
  for (size_t i = 0; i < a->num_primes(); ++i) {
    ctx.ntt(i).Inverse(a->residues[i].data());
  }
  a->ntt_form = false;
}

unsigned __int128 ComposeCoeffU128(const RnsContext& ctx, const RnsPoly& poly,
                                   size_t idx) {
  if (poly.num_primes() == 1) return poly.residues[0][idx];
  const uint64_t q1 = ctx.prime(0);
  const uint64_t q2 = ctx.prime(1);
  const uint64_t r1 = poly.residues[0][idx];
  const uint64_t r2 = poly.residues[1][idx];
  // Residues are below their own prime, so only r1 needs reducing mod q2
  // (q1 may exceed q2); Barrett and the cached Shoup companion replace the
  // hardware divisions.
  const uint64_t diff = SubMod(r2, BarrettReduce64(r1, ctx.modulus(1)), q2);
  const uint64_t t = MulModShoup(diff, ctx.crt_q0_inv_q1(),
                                 ctx.crt_q0_inv_q1_shoup(), q2);
  return static_cast<unsigned __int128>(r1) +
         static_cast<unsigned __int128>(q1) * t;
}

double ComposeCoeffToDouble(const RnsContext& ctx, const RnsPoly& poly,
                            size_t idx) {
  if (poly.num_primes() == 1) {
    const uint64_t q = ctx.prime(0);
    const uint64_t r = poly.residues[0][idx];
    // Recenter to (-q/2, q/2].
    return r > q / 2 ? -static_cast<double>(q - r) : static_cast<double>(r);
  }
  // Two-prime CRT: x = r1 + q1 * ((r2 - r1) * q1^{-1} mod q2).
  const unsigned __int128 x = ComposeCoeffU128(ctx, poly, idx);
  const unsigned __int128 big_q = static_cast<unsigned __int128>(ctx.prime(0)) *
                                  static_cast<unsigned __int128>(ctx.prime(1));
  if (x > big_q / 2) {
    return -static_cast<double>(big_q - x);
  }
  return static_cast<double>(x);
}

}  // namespace vfps::he
