#include "he/ckks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace vfps::he {
namespace {

CkksParams SmallParams() {
  CkksParams params;
  params.poly_degree = 1024;  // fast tests; production default is 4096
  params.scale = std::ldexp(1.0, 40);
  return params;
}

class CkksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ctx = CkksContext::Create(SmallParams());
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = *ctx;
    rng_ = std::make_unique<Rng>(2024);
    sk_ = ctx_->GenerateSecretKey(rng_.get());
    pk_ = ctx_->GeneratePublicKey(sk_, rng_.get());
  }

  std::shared_ptr<const CkksContext> ctx_;
  std::unique_ptr<Rng> rng_;
  CkksSecretKey sk_;
  CkksPublicKey pk_;
};

TEST_F(CkksTest, EncodeDecodeRoundTrip) {
  const auto& encoder = ctx_->encoder();
  std::vector<double> values;
  Rng rng(7);
  for (size_t i = 0; i < encoder.slot_count(); ++i) {
    values.push_back(rng.Uniform(-100.0, 100.0));
  }
  auto pt = encoder.Encode(values, ctx_->params().scale);
  ASSERT_TRUE(pt.ok()) << pt.status().ToString();
  auto decoded = encoder.Decode(*pt, ctx_->params().scale, values.size());
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decoded)[i], values[i], 1e-6) << "slot " << i;
  }
}

TEST_F(CkksTest, EncryptDecryptRoundTrip) {
  std::vector<double> values = {1.5, -2.25, 1000.0, 0.0, -0.001, 42.42};
  auto ct = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  auto decrypted = ctx_->DecryptVector(sk_, *ct, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], values[i], 1e-4) << "slot " << i;
  }
}

TEST_F(CkksTest, CiphertextHidesPlaintext) {
  // Two encryptions of the same value must differ (semantic security), and a
  // fresh ciphertext must not decrypt under a different key.
  std::vector<double> values = {3.0, 1.0};
  auto ct1 = ctx_->EncryptVector(pk_, values, rng_.get());
  auto ct2 = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(ct1.ok() && ct2.ok());
  EXPECT_NE(ct1->c0.residues, ct2->c0.residues);

  Rng other_rng(999);
  CkksSecretKey other_sk = ctx_->GenerateSecretKey(&other_rng);
  auto wrong = ctx_->DecryptVector(other_sk, *ct1, values.size());
  ASSERT_TRUE(wrong.ok());
  EXPECT_GT(std::abs((*wrong)[0] - values[0]), 1.0);
}

TEST_F(CkksTest, HomomorphicAddition) {
  std::vector<double> a = {1.0, 2.0, -3.5};
  std::vector<double> b = {10.0, -20.0, 0.25};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  auto cb = ctx_->EncryptVector(pk_, b, rng_.get());
  ASSERT_TRUE(ca.ok() && cb.ok());
  ASSERT_TRUE(ctx_->AddInPlaceCt(&ca.ValueOrDie(), *cb).ok());
  auto decrypted = ctx_->DecryptVector(sk_, *ca, a.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], a[i] + b[i], 1e-4);
  }
}

TEST_F(CkksTest, ManyAdditionsAccumulateNoiseGracefully) {
  // Sum 20 encrypted copies of a ramp vector (matches the P <= 20 participants
  // in the scalability experiment).
  std::vector<double> values = {0.5, 1.0, 2.0, 4.0};
  auto acc = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(acc.ok());
  for (int i = 0; i < 19; ++i) {
    auto ct = ctx_->EncryptVector(pk_, values, rng_.get());
    ASSERT_TRUE(ct.ok());
    ASSERT_TRUE(ctx_->AddInPlaceCt(&acc.ValueOrDie(), *ct).ok());
  }
  auto decrypted = ctx_->DecryptVector(sk_, *acc, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], 20.0 * values[i], 1e-3);
  }
}

TEST_F(CkksTest, ScaleMismatchRejected) {
  std::vector<double> v = {1.0};
  auto ca = ctx_->EncryptVector(pk_, v, rng_.get());
  ASSERT_TRUE(ca.ok());
  CkksCiphertext other = *ca;
  other.scale *= 2.0;
  EXPECT_FALSE(ctx_->AddInPlaceCt(&other, *ca).ok());
}

TEST_F(CkksTest, SerializationRoundTrip) {
  std::vector<double> values = {9.75, -1.25, 3.0};
  auto ct = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(ct.ok());
  BinaryWriter writer;
  ctx_->SerializeCiphertext(*ct, &writer);
  EXPECT_EQ(writer.size(), ctx_->CiphertextByteSize());
  BinaryReader reader(writer.bytes());
  auto restored = ctx_->DeserializeCiphertext(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto decrypted = ctx_->DecryptVector(sk_, *restored, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], values[i], 1e-4);
  }
}

TEST_F(CkksTest, EncodeOverCapacityFails) {
  std::vector<double> too_many(ctx_->slot_count() + 1, 1.0);
  EXPECT_FALSE(ctx_->EncryptVector(pk_, too_many, rng_.get()).ok());
}

TEST_F(CkksTest, EncodeOverflowingMagnitudeFails) {
  std::vector<double> huge = {1e30};
  EXPECT_FALSE(ctx_->EncryptVector(pk_, huge, rng_.get()).ok());
}

TEST(CkksParamsTest, RejectsBadParams) {
  CkksParams params;
  params.poly_degree = 4;
  EXPECT_FALSE(CkksContext::Create(params).ok());
  params = CkksParams{};
  params.prime_bits = {20};
  EXPECT_FALSE(CkksContext::Create(params).ok());
  params = CkksParams{};
  params.prime_bits = {60};
  EXPECT_FALSE(CkksContext::Create(params).ok());
}

TEST(CkksParamsTest, DefaultIsOneFiftyNineBitPrime) {
  auto ctx = CkksContext::Create(CkksParams{});
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  ASSERT_EQ((*ctx)->rns().num_primes(), 1u);
  const uint64_t q = (*ctx)->rns().prime(0);
  EXPECT_GE(q, uint64_t{1} << 58);
  EXPECT_LT(q, uint64_t{1} << 59);
  // scale + form byte + 2 * (prime count + length + 4096 residues).
  EXPECT_EQ((*ctx)->CiphertextByteSize(), 65561u);
}

TEST(CkksParamsTest, TwoPrimeContextWorks) {
  CkksParams params;
  params.poly_degree = 1024;
  params.prime_bits = {54, 54};
  auto ctx = CkksContext::Create(params);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  Rng rng(5);
  auto sk = (*ctx)->GenerateSecretKey(&rng);
  auto pk = (*ctx)->GeneratePublicKey(sk, &rng);
  std::vector<double> values = {1.0, 2.5, -3.0};
  auto ct = (*ctx)->EncryptVector(pk, values, &rng);
  ASSERT_TRUE(ct.ok());
  auto decrypted = (*ctx)->DecryptVector(sk, *ct, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], values[i], 1e-3);
  }
}

// The encoder accepts exactly the coefficients the centered lift recovers:
// values that round to |c| <= (q - 1) / 2. A constant slot vector encodes to
// that constant times the scale, so at scale 1 the edge shows to the
// fraction: (q - 1) / 2 + 0.25 rounds inside, + 0.75 would round to
// (q + 1) / 2 and decode with the wrong sign.
TEST(CkksParamsTest, EncoderBoundIsHalfTheModulus) {
  CkksParams params;
  params.poly_degree = 16;
  params.prime_bits = {30};
  params.scale = 1.0;
  auto ctx = CkksContext::Create(params);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  const CkksEncoder& encoder = (*ctx)->encoder();
  const double q = static_cast<double>((*ctx)->rns().prime(0));
  const double edge = (q - 1) / 2;
  for (double sign : {1.0, -1.0}) {
    const std::vector<double> inside(encoder.slot_count(),
                                     sign * (edge + 0.25));
    auto pt = encoder.Encode(inside, 1.0);
    ASSERT_TRUE(pt.ok()) << pt.status().ToString();
    auto decoded = encoder.Decode(*pt, 1.0, inside.size());
    ASSERT_TRUE(decoded.ok());
    for (double got : *decoded) EXPECT_NEAR(got, sign * edge, 1e-6);
    const std::vector<double> past(encoder.slot_count(), sign * (edge + 0.75));
    EXPECT_TRUE(encoder.Encode(past, 1.0).status().IsOutOfRange()) << sign;
  }
}

// The additive headroom at the default parameters: q / 2 ~ 2^58 over
// scale 2^40 leaves 2^18 of plaintext magnitude, split across the addends.
TEST(CkksSummableTest, BoundFollowsQOverAddends) {
  auto ctx = CkksContext::Create(CkksParams{});
  ASSERT_TRUE(ctx.ok());
  const double q = static_cast<double>((*ctx)->rns().prime(0));
  for (size_t addends : {1, 2, 8, 20}) {
    const double limit = (*ctx)->SummableMagnitude(addends);
    const double wrap = q / 2.0 / static_cast<double>(addends) / 0x1p40;
    EXPECT_LT(limit, wrap) << addends;
    EXPECT_GT(limit, wrap * (1.0 - 1e-5)) << addends;
  }
  EXPECT_EQ((*ctx)->SummableMagnitude(0), (*ctx)->SummableMagnitude(1));
  // Two 54-bit primes: the encoder's 2^62 coefficient bound caps it.
  CkksParams two;
  two.prime_bits = {54, 54};
  auto wide = CkksContext::Create(two);
  ASSERT_TRUE(wide.ok());
  EXPECT_LE((*wide)->SummableMagnitude(8), 0x1p22);
  EXPECT_GT((*wide)->SummableMagnitude(8), 0x1p22 * (1.0 - 1e-5));
}

// A P-party sum of all-slot constants puts P * scale * V on one coefficient,
// the encoding's worst case. Just under the bound it decodes; a little past
// where that coefficient passes q / 2 it wraps to a value off by q / scale.
TEST(CkksSummableTest, SumDecodesUnderTheBoundAndWrapsPastIt) {
  auto ctx_or = CkksContext::Create(CkksParams{});
  ASSERT_TRUE(ctx_or.ok());
  const CkksContext& ctx = **ctx_or;
  Rng rng(91);
  const CkksSecretKey sk = ctx.GenerateSecretKey(&rng);
  const CkksPublicKey pk = ctx.GeneratePublicKey(sk, &rng);
  constexpr size_t kParties = 8;
  const double limit = ctx.SummableMagnitude(kParties);
  const auto sum_of = [&](double v) {
    const std::vector<double> values(ctx.slot_count(), v);
    auto acc = ctx.EncryptVector(pk, values, &rng).ValueOrDie();
    for (size_t p = 1; p < kParties; ++p) {
      auto ct = ctx.EncryptVector(pk, values, &rng).ValueOrDie();
      EXPECT_TRUE(ctx.AddInPlaceCt(&acc, ct).ok());
    }
    return ctx.DecryptVector(sk, acc, 4).ValueOrDie();
  };
  for (double sign : {1.0, -1.0}) {
    const double v = sign * limit * (1.0 - 1e-9);
    for (double got : sum_of(v)) EXPECT_NEAR(got, kParties * v, 1e-3);
  }
  const double past = limit * 1.02;
  for (double got : sum_of(past)) EXPECT_LT(got, 0.0);
}

// Deterministic mutation sweep of the wire format on a degree-16 context:
// every truncation and every flipped bit or byte either parses to a
// ciphertext that re-serializes to exactly the mutated bytes (a residue
// changed to another value below q, or the other form) or fails with
// ProtocolError.
TEST(CkksWireTest, TruncatedAndFlippedCiphertextsAreProtocolErrors) {
  CkksParams params;
  params.poly_degree = 16;
  auto ctx_or = CkksContext::Create(params);
  ASSERT_TRUE(ctx_or.ok()) << ctx_or.status().ToString();
  const CkksContext& ctx = **ctx_or;
  Rng rng(17);
  const CkksSecretKey sk = ctx.GenerateSecretKey(&rng);
  const CkksPublicKey pk = ctx.GeneratePublicKey(sk, &rng);
  auto ct = ctx.EncryptVector(pk, {1.0, -2.0, 3.5}, &rng);
  ASSERT_TRUE(ct.ok());
  BinaryWriter writer;
  ctx.SerializeCiphertext(*ct, &writer);
  const std::vector<uint8_t> good = writer.bytes();
  ASSERT_EQ(good.size(), ctx.CiphertextByteSize());

  for (size_t len = 0; len < good.size(); ++len) {
    BinaryReader reader(good.data(), len);
    auto parsed = ctx.DeserializeCiphertext(&reader);
    EXPECT_TRUE(parsed.status().IsProtocolError()) << "truncated to " << len;
  }
  // Only residue bytes and the form byte (0 and 1 are both forms) can change
  // into another well-formed ciphertext. Header: scale (8), form (1); per
  // component: prime count (4), length (4), 16 residues (8 each).
  const auto may_stay_valid = [](size_t pos) {
    return pos == 8 || (pos > 8 && (pos - 9) % (4 + 4 + 16 * 8) >= 8);
  };
  size_t accepted = 0;
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (uint8_t mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                         0xFF}) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= mask;
      BinaryReader reader(bad);
      auto parsed = ctx.DeserializeCiphertext(&reader);
      if (parsed.ok()) {
        EXPECT_TRUE(may_stay_valid(pos)) << "pos " << pos;
        BinaryWriter again;
        ctx.SerializeCiphertext(*parsed, &again);
        EXPECT_EQ(again.bytes(), bad) << "pos " << pos;
        ++accepted;
      } else {
        EXPECT_TRUE(parsed.status().IsProtocolError())
            << "pos " << pos << ": " << parsed.status().ToString();
      }
    }
  }
  EXPECT_GT(accepted, 0u);
}

// The same checks at the production degree, each aimed at one field.
TEST(CkksWireTest, RejectsOutOfRangeResiduesAndWrongShapes) {
  auto ctx_or = CkksContext::Create(CkksParams{});
  ASSERT_TRUE(ctx_or.ok());
  const CkksContext& ctx = **ctx_or;
  Rng rng(23);
  const CkksSecretKey sk = ctx.GenerateSecretKey(&rng);
  const CkksPublicKey pk = ctx.GeneratePublicKey(sk, &rng);
  const CkksCiphertext ct = ctx.EncryptVector(pk, {4.0}, &rng).ValueOrDie();
  const auto parse = [&](const CkksCiphertext& c) {
    BinaryWriter writer;
    ctx.SerializeCiphertext(c, &writer);
    BinaryReader reader(writer.bytes());
    return ctx.DeserializeCiphertext(&reader).status();
  };
  ASSERT_TRUE(parse(ct).ok());
  const uint64_t q = ctx.rns().prime(0);
  for (uint64_t residue : {q, q + 1, ~uint64_t{0}}) {
    for (size_t idx : {size_t{0}, ctx.rns().n() - 1}) {
      CkksCiphertext bad = ct;
      bad.c1.residues[0][idx] = residue;
      EXPECT_TRUE(parse(bad).IsProtocolError()) << residue << " @" << idx;
    }
  }
  CkksCiphertext two_primes = ct;
  two_primes.c0.residues.push_back(ct.c0.residues[0]);
  EXPECT_TRUE(parse(two_primes).IsProtocolError());
  CkksCiphertext no_primes = ct;
  no_primes.c1.residues.clear();
  EXPECT_TRUE(parse(no_primes).IsProtocolError());
  CkksCiphertext short_degree = ct;
  short_degree.c0.residues[0].pop_back();
  EXPECT_TRUE(parse(short_degree).IsProtocolError());
  for (double scale : {ct.scale * 2.0, 0.0, std::nan(""), HUGE_VAL}) {
    CkksCiphertext bad = ct;
    bad.scale = scale;
    EXPECT_TRUE(parse(bad).IsProtocolError()) << scale;
  }
}

}  // namespace
}  // namespace vfps::he
