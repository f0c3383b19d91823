#include "he/rns.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "he/modarith.h"

namespace vfps::he {
namespace {

std::shared_ptr<const RnsContext> MakeContext(size_t n = 64,
                                              std::vector<int> bits = {54, 54}) {
  auto ctx = RnsContext::Create(n, bits);
  return ctx.ValueOrDie();
}

TEST(RnsContextTest, CreatesDistinctNttFriendlyPrimes) {
  auto ctx = MakeContext();
  ASSERT_EQ(ctx->num_primes(), 2u);
  EXPECT_NE(ctx->prime(0), ctx->prime(1));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(IsPrime(ctx->prime(i)));
    EXPECT_EQ((ctx->prime(i) - 1) % (2 * ctx->n()), 0u);
  }
  EXPECT_GT(ctx->modulus_approx(), 0.0L);
}

TEST(RnsContextTest, RejectsTooManyPrimes) {
  EXPECT_FALSE(RnsContext::Create(64, {50, 50, 50}).ok());
  EXPECT_FALSE(RnsContext::Create(64, {}).ok());
}

TEST(RnsPolyTest, SetAndComposeRoundTripSigned) {
  auto ctx = MakeContext();
  RnsPoly poly = ZeroPoly(*ctx);
  const __int128 values[] = {0, 1, -1, 123456789, -987654321,
                             (static_cast<__int128>(1) << 100),
                             -(static_cast<__int128>(1) << 100)};
  for (size_t i = 0; i < std::size(values); ++i) {
    for (size_t p = 0; p < ctx->num_primes(); ++p) {
      const auto q = static_cast<__int128>(ctx->prime(p));
      poly.residues[p][i] = static_cast<uint64_t>(((values[i] % q) + q) % q);
    }
  }
  for (size_t i = 0; i < std::size(values); ++i) {
    const double got = ComposeCoeffToDouble(*ctx, poly, i);
    const double expected = static_cast<double>(values[i]);
    EXPECT_NEAR(got, expected, std::abs(expected) * 1e-12 + 1e-9) << "idx " << i;
  }
}

TEST(RnsPolyTest, ComposeU128MatchesCrt) {
  auto ctx = MakeContext();
  Rng rng(3);
  RnsPoly poly = ZeroPoly(*ctx);
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t hi = rng.Next() >> 30;
    const unsigned __int128 v =
        (static_cast<unsigned __int128>(hi) << 50) | (rng.Next() >> 20);
    poly.residues[0][0] = static_cast<uint64_t>(v % ctx->prime(0));
    poly.residues[1][0] = static_cast<uint64_t>(v % ctx->prime(1));
    EXPECT_TRUE(ComposeCoeffU128(*ctx, poly, 0) == v);
  }
}

TEST(RnsPolyTest, AddSubNegateConsistent) {
  auto ctx = MakeContext();
  Rng rng(5);
  RnsPoly a = SampleUniform(*ctx, &rng);
  RnsPoly b = SampleUniform(*ctx, &rng);
  RnsPoly sum = a;
  AddInPlace(*ctx, &sum, b);
  RnsPoly back = sum;
  SubInPlace(*ctx, &back, b);
  EXPECT_EQ(back.residues, a.residues);
  RnsPoly neg = a;
  NegateInPlace(*ctx, &neg);
  AddInPlace(*ctx, &neg, a);
  for (const auto& res : neg.residues) {
    for (uint64_t v : res) EXPECT_EQ(v, 0u);
  }
}

TEST(RnsPolyTest, NttRoundTrip) {
  auto ctx = MakeContext();
  Rng rng(7);
  RnsPoly a = SampleGaussian(*ctx, &rng);
  const auto original = a.residues;
  ToNtt(*ctx, &a);
  EXPECT_TRUE(a.ntt_form);
  EXPECT_NE(a.residues, original);
  FromNtt(*ctx, &a);
  EXPECT_FALSE(a.ntt_form);
  EXPECT_EQ(a.residues, original);
  // Idempotence of the no-op direction.
  FromNtt(*ctx, &a);
  EXPECT_EQ(a.residues, original);
}

TEST(RnsPolyTest, LevelAwareOpsUseMinimumPrimes) {
  auto ctx = MakeContext();
  Rng rng(9);
  RnsPoly full = SampleUniform(*ctx, &rng);
  RnsPoly low = full;
  low.residues.pop_back();  // level-1 polynomial
  RnsPoly sum = low;
  AddInPlace(*ctx, &sum, full);  // must not touch the missing prime
  EXPECT_EQ(sum.num_primes(), 1u);
  for (size_t c = 0; c < ctx->n(); ++c) {
    EXPECT_EQ(sum.residues[0][c],
              AddMod(low.residues[0][c], full.residues[0][c], ctx->prime(0)));
  }
}

TEST(RnsPolyTest, TernaryAndGaussianAreSmall) {
  auto ctx = MakeContext(256);
  Rng rng(11);
  RnsPoly t = SampleTernary(*ctx, &rng);
  for (size_t c = 0; c < ctx->n(); ++c) {
    const double v = ComposeCoeffToDouble(*ctx, t, c);
    EXPECT_TRUE(v == 0.0 || v == 1.0 || v == -1.0) << v;
  }
  RnsPoly g = SampleGaussian(*ctx, &rng, 3.2);
  for (size_t c = 0; c < ctx->n(); ++c) {
    EXPECT_LT(std::abs(ComposeCoeffToDouble(*ctx, g, c)), 40.0);
  }
}

TEST(RnsSamplerTest, TernaryMatchesNextBoundedReference) {
  // The sampler inlines rng->NextBounded(3): it must draw the same values
  // and leave the generator in the same state.
  auto ctx = MakeContext(1024);
  Rng fast(17);
  Rng reference(17);
  for (int poly = 0; poly < 16; ++poly) {
    const RnsPoly t = SampleTernary(*ctx, &fast);
    for (size_t c = 0; c < ctx->n(); ++c) {
      const int64_t want = static_cast<int64_t>(reference.NextBounded(3)) - 1;
      for (size_t i = 0; i < ctx->num_primes(); ++i) {
        const uint64_t residue = want < 0 ? ctx->prime(i) - 1 : want;
        ASSERT_EQ(t.residues[i][c], residue) << "poly " << poly << " coeff " << c;
      }
    }
  }
  EXPECT_EQ(fast.Next(), reference.Next());
}

TEST(RnsSamplerTest, GaussianMatchesRoundedNormal) {
  // v = round(N(0, sigma^2)) from the CDT sampler, over 10^6 draws.
  constexpr double kSigma = 3.2;
  constexpr int kPolys = 245;  // 245 * 4096 > 10^6
  auto ctx = MakeContext(4096);
  const int64_t bound = GaussianTailBound(kSigma);
  EXPECT_EQ(bound, 29);
  Rng rng(23);
  std::vector<double> abs_counts(static_cast<size_t>(bound) + 1, 0.0);
  double n = 0, sum = 0, sum2 = 0, sum4 = 0, positive = 0, negative = 0;
  int64_t max_abs = 0;
  for (int poly = 0; poly < kPolys; ++poly) {
    const RnsPoly g = SampleGaussian(*ctx, &rng, kSigma);
    for (size_t c = 0; c < ctx->n(); ++c) {
      const uint64_t q0 = ctx->prime(0);
      const uint64_t r = g.residues[0][c];
      const int64_t v = r > q0 / 2 ? -static_cast<int64_t>(q0 - r)
                                   : static_cast<int64_t>(r);
      // Every prime carries the same small value.
      const uint64_t q1 = ctx->prime(1);
      ASSERT_EQ(g.residues[1][c], v < 0 ? q1 - static_cast<uint64_t>(-v)
                                        : static_cast<uint64_t>(v));
      const int64_t a = v < 0 ? -v : v;
      max_abs = std::max(max_abs, a);
      if (a <= bound) abs_counts[static_cast<size_t>(a)] += 1;
      const double x = static_cast<double>(v);
      n += 1;
      sum += x;
      sum2 += x * x;
      sum4 += x * x * x * x;
      positive += v > 0 ? 1 : 0;
      negative += v < 0 ? 1 : 0;
    }
  }
  EXPECT_LE(max_abs, bound);

  const double var_expected = kSigma * kSigma + 1.0 / 12.0;
  const double mean = sum / n;
  EXPECT_LT(std::abs(mean), 4.0 * std::sqrt(var_expected / n)) << mean;
  const double var = sum2 / n - mean * mean;
  const double m4 = sum4 / n;
  const double var_se = std::sqrt((m4 - var * var) / n);
  EXPECT_LT(std::abs(var - var_expected), 4.0 * var_se)
      << "variance " << var << " want " << var_expected;

  // P(|v| = k) = P(k - 1/2 < |X| < k + 1/2) for X ~ N(0, sigma^2).
  const auto cdf_abs = [&](double x) {
    return std::erf(x / (kSigma * std::sqrt(2.0)));
  };
  for (int k = 0; k <= 8; ++k) {
    const double p = k == 0 ? cdf_abs(0.5) : cdf_abs(k + 0.5) - cdf_abs(k - 0.5);
    const double want = n * p;
    const double se = std::sqrt(n * p * (1 - p));
    EXPECT_LT(std::abs(abs_counts[static_cast<size_t>(k)] - want), 4.0 * se)
        << "|v| = " << k << ": " << abs_counts[static_cast<size_t>(k)]
        << " draws, want " << want;
  }
  EXPECT_LT(std::abs(positive - negative), 4.0 * std::sqrt(positive + negative));
}

TEST(RnsPolyTest, MulScalarMatchesRepeatedAdd) {
  auto ctx = MakeContext();
  Rng rng(13);
  RnsPoly a = SampleUniform(*ctx, &rng);
  RnsPoly triple = a;
  MulScalarInPlace(*ctx, &triple, 3);
  RnsPoly sum = a;
  AddInPlace(*ctx, &sum, a);
  AddInPlace(*ctx, &sum, a);
  EXPECT_EQ(triple.residues, sum.residues);
}

}  // namespace
}  // namespace vfps::he
