#include "he/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

namespace vfps::he {
namespace {

// Shared backend fixtures (key generation is expensive, do it once).
std::unique_ptr<HeBackend>* CkksFixture() {
  static auto* backend = [] {
    CkksParams params;
    params.poly_degree = 1024;
    auto result = CreateCkksBackend(params, /*seed=*/31337);
    return new std::unique_ptr<HeBackend>(result.MoveValueUnsafe());
  }();
  return backend;
}

std::unique_ptr<HeBackend>* PaillierFixture() {
  static auto* backend = [] {
    auto result = CreatePaillierBackend(/*modulus_bits=*/256,
                                        /*fractional_bits=*/20, /*seed=*/99);
    return new std::unique_ptr<HeBackend>(result.MoveValueUnsafe());
  }();
  return backend;
}

std::unique_ptr<HeBackend>* PlainFixture() {
  static auto* backend = new std::unique_ptr<HeBackend>(CreatePlainBackend());
  return backend;
}

class HeBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  HeBackend* backend() {
    const std::string which = GetParam();
    if (which == "ckks") return CkksFixture()->get();
    if (which == "paillier") return PaillierFixture()->get();
    return PlainFixture()->get();
  }
  // CKKS is approximate; Paillier fixed-point at 20 bits; plain exact.
  double Tolerance() const { return 1e-3; }
};

TEST_P(HeBackendTest, EncryptDecryptRoundTrip) {
  auto* be = backend();
  std::vector<double> values = {1.5, -2.25, 0.0, 100.0, -0.125};
  auto enc = be->Encrypt(values);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_EQ(enc->count, values.size());
  auto dec = be->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*dec)[i], values[i], Tolerance());
  }
}

TEST_P(HeBackendTest, HomomorphicSumOfThreeParties) {
  auto* be = backend();
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {0.5, -1.0, 10.0};
  std::vector<double> c = {-0.25, 4.0, -3.0};
  auto ea = be->Encrypt(a);
  auto eb = be->Encrypt(b);
  auto ec = be->Encrypt(c);
  ASSERT_TRUE(ea.ok() && eb.ok() && ec.ok());
  auto sum = be->Sum({&*ea, &*eb, &*ec});
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*dec)[i], a[i] + b[i] + c[i], Tolerance());
  }
}

TEST_P(HeBackendTest, SumCountMismatchRejected) {
  auto* be = backend();
  auto ea = be->Encrypt({1.0, 2.0});
  auto eb = be->Encrypt({1.0});
  ASSERT_TRUE(ea.ok() && eb.ok());
  EXPECT_FALSE(be->Sum({&*ea, &*eb}).ok());
}

TEST_P(HeBackendTest, SumOfNothingRejected) {
  EXPECT_FALSE(backend()->Sum({}).ok());
}

TEST_P(HeBackendTest, CiphertextBytesMatchesActualBlob) {
  auto* be = backend();
  for (size_t count : {1u, 5u, 600u}) {
    std::vector<double> values(count, 1.25);
    auto enc = be->Encrypt(values);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(enc->ByteSize(), be->CiphertextBytes(count))
        << be->name() << " count=" << count;
  }
}

TEST_P(HeBackendTest, StatsCountOperations) {
  auto* be = backend();
  be->ResetStats();
  auto ea = be->Encrypt({1.0, 2.0});
  auto eb = be->Encrypt({3.0, 4.0});
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto sum = be->Sum({&*ea, &*eb});
  ASSERT_TRUE(sum.ok());
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  const auto& stats = be->stats();
  EXPECT_GT(stats.encrypt_ops, 0u);
  EXPECT_GT(stats.add_ops, 0u);
  EXPECT_GT(stats.decrypt_ops, 0u);
  EXPECT_EQ(stats.values_encrypted, 4u);
  be->ResetStats();
  EXPECT_EQ(be->stats().encrypt_ops, 0u);
}

TEST_P(HeBackendTest, EmptyVectorRoundTrip) {
  auto* be = backend();
  auto enc = be->Encrypt({});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->count, 0u);
  auto dec = be->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec->empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, HeBackendTest,
                         ::testing::Values("ckks", "paillier", "plain"));

TEST(HeBackendTest, CkksChunksLargeVectors) {
  // A vector larger than the slot count must span multiple ciphertexts and
  // still round-trip exactly.
  CkksParams params;
  params.poly_degree = 1024;  // 512 slots
  auto be = CreateCkksBackend(params, 5);
  ASSERT_TRUE(be.ok());
  std::vector<double> values(1300);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.01 * static_cast<double>(i);
  auto enc = (*be)->Encrypt(values);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ((*be)->stats().encrypt_ops, 3u);  // ceil(1300 / 512)
  auto dec = (*be)->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*dec)[i], values[i], 1e-3);
  }
}

TEST(HeBackendSecurityTest, CiphertextDoesNotEmbedPlaintext) {
  // Feature security: the serialized ciphertext must not contain the raw
  // IEEE-754 bit patterns of the plaintext values (the plain backend, by
  // design, does — that is what makes it a debugging backend only).
  const std::vector<double> values = {1234.5678, -42.125, 3.14159265};
  std::vector<uint8_t> raw(values.size() * sizeof(double));
  std::memcpy(raw.data(), values.data(), raw.size());
  auto contains = [&raw](const std::vector<uint8_t>& blob) {
    return std::search(blob.begin(), blob.end(), raw.begin(),
                       raw.begin() + sizeof(double)) != blob.end();
  };

  auto ckks = (*CkksFixture())->Encrypt(values);
  ASSERT_TRUE(ckks.ok());
  EXPECT_FALSE(contains(ckks->blob));

  auto paillier = (*PaillierFixture())->Encrypt(values);
  ASSERT_TRUE(paillier.ok());
  EXPECT_FALSE(contains(paillier->blob));

  auto plain = (*PlainFixture())->Encrypt(values);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(contains(plain->blob));  // the debug backend is NOT private
}

TEST(HeBackendSecurityTest, CkksBlobLooksUniform) {
  // Weak randomness smoke test: ciphertext bytes should use the full byte
  // alphabet (a structured/plaintext-bearing blob typically does not).
  auto enc = (*CkksFixture())->Encrypt(std::vector<double>(100, 7.0));
  ASSERT_TRUE(enc.ok());
  std::vector<size_t> histogram(256, 0);
  for (uint8_t b : enc->blob) histogram[b]++;
  size_t used = 0;
  for (size_t count : histogram) used += (count > 0);
  EXPECT_GT(used, 200u);
}

// The bound a party checks before encrypting its share of a P-party sum, at
// the default CKKS parameters (one 59-bit prime q, scale 2^40): just under
// (q/2)/(P * scale) the sum decodes, just over it the backend refuses.
TEST(HeBackendSummableTest, CkksPinsTheQOverPBound) {
  auto be_or = CreateCkksBackend(/*seed=*/8);
  ASSERT_TRUE(be_or.ok());
  HeBackend& be = **be_or;
  constexpr size_t kParties = 8;
  const double limit = be.SummableMagnitude(kParties);
  EXPECT_GT(limit, 32767.0);  // (2^58 / 8) / 2^40 = 2^15, less q's deficit
  EXPECT_LT(limit, 32768.0);

  for (double sign : {1.0, -1.0}) {
    // Every slot at the bound is the encoding's worst case.
    const std::vector<double> under(be.SlotsPerCiphertext(),
                                    sign * limit * (1.0 - 1e-9));
    ASSERT_TRUE(be.CheckSummable(under, kParties).ok());
    std::vector<EncryptedVector> shares;
    for (size_t p = 0; p < kParties; ++p) {
      shares.push_back(be.Encrypt(under).ValueOrDie());
    }
    std::vector<const EncryptedVector*> ptrs;
    for (const auto& e : shares) ptrs.push_back(&e);
    auto sum = be.Decrypt(be.Sum(ptrs).ValueOrDie());
    ASSERT_TRUE(sum.ok());
    for (double got : *sum) ASSERT_NEAR(got, kParties * under[0], 1e-3);

    std::vector<double> over = under;
    over[17] = sign * limit * (1.0 + 1e-9);
    const Status status = be.CheckSummable(over, kParties);
    EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
    // One addend fewer leaves room for it.
    EXPECT_TRUE(be.CheckSummable(over, kParties - 1).ok());
  }
  const std::vector<double> nan = {std::nan("")};
  EXPECT_TRUE(be.CheckSummable(nan, kParties).IsOutOfRange());
}

TEST(HeBackendSummableTest, PlainAndPaillierHaveNoSumBound) {
  const std::vector<double> huge = {1e300, -1e300};
  for (HeBackend* be : {PlainFixture()->get(), PaillierFixture()->get()}) {
    EXPECT_TRUE(std::isinf(be->SummableMagnitude(8))) << be->name();
    EXPECT_TRUE(be->CheckSummable(huge, 1000).ok()) << be->name();
  }
}

// A blob must carry exactly the ciphertexts its value count takes: a forged
// count is refused before anything is allocated for it, and a short blob
// cannot make Sum index past the chunks it parsed.
TEST(HeBackendWireTest, RejectsMismatchedCiphertextCounts) {
  HeBackend* be = CkksFixture()->get();  // 512 slots
  const EncryptedVector two =
      be->Encrypt(std::vector<double>(600, 1.0)).ValueOrDie();
  EncryptedVector forged = two;
  std::memset(forged.blob.data(), 0xFF, sizeof(uint32_t));
  EXPECT_TRUE(be->Decrypt(forged).status().IsProtocolError());
  EncryptedVector wider = two;
  wider.count = 1200;  // three ciphertexts' worth, two present
  const EncryptedVector three =
      be->Encrypt(std::vector<double>(1200, 1.0)).ValueOrDie();
  EXPECT_TRUE(be->Sum({&three, &wider}).status().IsProtocolError());
  EncryptedVector padded = two;
  padded.blob.push_back(0);
  EXPECT_TRUE(be->Decrypt(padded).status().IsProtocolError());

  HeBackend* paillier = PaillierFixture()->get();
  EncryptedVector scalar = paillier->Encrypt({1.0, 2.0}).ValueOrDie();
  scalar.count = 3;
  EXPECT_TRUE(paillier->Decrypt(scalar).status().IsProtocolError());
}

TEST(HeBackendTest, BackendNames) {
  EXPECT_EQ(CkksFixture()->get()->name(), "ckks");
  EXPECT_EQ(PaillierFixture()->get()->name(), "paillier");
  EXPECT_EQ(PlainFixture()->get()->name(), "plain");
}

}  // namespace
}  // namespace vfps::he
