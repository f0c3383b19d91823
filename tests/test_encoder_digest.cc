// Frozen-digest test for the CKKS encoder. Encode's coefficients and
// Decode's doubles over a seeded corpus must hash to the values recorded
// below, which were taken from the std::complex reference encoder in the
// default (portable) build. The contract (docs/KERNELS.md, "CKKS encoder
// FFT") is that encoder rewrites stay bit-identical and that the result does
// not depend on build flags: a compiler that contracts the FFT's multiply/add
// pairs into FMAs (-march=native without -ffp-contract=off) shows up here as
// a changed digest.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "he/ckks.h"

namespace vfps::he {
namespace {

// FNV-1a over raw bytes.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct Digests {
  uint64_t encode = 0xCBF29CE484222325ULL;
  uint64_t decode = 0xCBF29CE484222325ULL;
};

// Encodes `trials` seeded vectors of varying fill, magnitude and scale,
// hashing each plaintext's coefficient-form residues and the doubles that
// Decode returns for it.
Digests CorpusDigests(size_t degree, std::vector<int> prime_bits,
                      uint64_t seed, int trials) {
  CkksParams params;
  params.poly_degree = degree;
  params.prime_bits = std::move(prime_bits);
  auto ctx = CkksContext::Create(params).ValueOrDie();
  const CkksEncoder& encoder = ctx->encoder();
  const size_t slots = encoder.slot_count();
  const double magnitudes[] = {1e-3, 1.0, 100.0, 1e4, 1e5};
  const double scales[] = {std::ldexp(1.0, 40), std::ldexp(1.0, 30)};

  Digests d;
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    const size_t count = t % 3 == 0 ? slots : 1 + rng.NextBounded(slots);
    const double mag = magnitudes[t % 5];
    const double scale = scales[(t / 5) % 2];
    // Uniform in [-mag, mag) from integer bits and a single multiply, so
    // the corpus itself cannot change under FMA contraction.
    std::vector<double> values(count);
    for (double& v : values) {
      const auto bits = static_cast<int64_t>(rng.Next()) >> 11;
      v = std::ldexp(static_cast<double>(bits), -52) * mag;
    }

    auto pt = encoder.Encode(values, scale);
    EXPECT_TRUE(pt.ok()) << pt.status().ToString();
    if (!pt.ok()) return d;
    RnsPoly coeffs = *pt;
    FromNtt(ctx->rns(), &coeffs);
    for (const auto& residue : coeffs.residues) {
      d.encode = Fnv1a(d.encode, residue.data(), residue.size() * sizeof(uint64_t));
    }
    auto decoded = encoder.Decode(*pt, scale, slots);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (!decoded.ok()) return d;
    d.decode = Fnv1a(d.decode, decoded->data(), decoded->size() * sizeof(double));
  }
  return d;
}

TEST(EncoderDigestTest, TwoPrimeDefaultDegree) {
  const Digests d = CorpusDigests(4096, {54, 54}, 101, 24);
  EXPECT_EQ(d.encode, 0x593DED728C9DCD36ULL);
  EXPECT_EQ(d.decode, 0x7F6AA140A0069669ULL);
}

TEST(EncoderDigestTest, TwoPrimeSmallDegree) {
  const Digests d = CorpusDigests(1024, {54, 54}, 202, 48);
  EXPECT_EQ(d.encode, 0x52C5F7D339C7A85AULL);
  EXPECT_EQ(d.decode, 0xEB579D4E95F9FB09ULL);
}

TEST(EncoderDigestTest, SinglePrime) {
  const Digests d = CorpusDigests(1024, {59}, 303, 24);
  EXPECT_EQ(d.encode, 0x349CE46EF45C89BBULL);
  EXPECT_EQ(d.decode, 0x5479665626C404D1ULL);
}

}  // namespace
}  // namespace vfps::he
