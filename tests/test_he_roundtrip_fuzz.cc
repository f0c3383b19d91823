// Seeded round-trip fuzz of the real HE backends (CKKS and Paillier, plus
// the plain debug backend as an exact reference): random and adversarial
// vectors through encode -> encrypt -> homomorphic add -> decrypt, checking
// scheme-appropriate error bounds, plus the observability contract — the
// `he.*` counters published through a MetricsRegistry must agree with the
// backend's own HeOpStats for the exact same sequence of API calls.
#include "he/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"

namespace vfps::he {
namespace {

// Shared fixtures: key generation is expensive, do it once per binary.
std::unique_ptr<HeBackend>* CkksFixture() {
  static auto* backend = [] {
    CkksParams params;
    params.poly_degree = 1024;  // 512 slots
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

struct BackendCase {
  const char* name;
  // Per-value absolute error bound after summing `addends` ciphertexts of
  // magnitude <= `mag`.
  double (*bound)(size_t addends, double mag);
  // Largest |value| the fuzzer may feed this scheme (decode range).
  double max_magnitude;
};

double PlainBound(size_t addends, double mag) {
  return 1e-12 + static_cast<double>(addends) * mag * 1e-15;
}
// Fixed-point with 20 fractional bits: each encode truncates by < 2^-20,
// plus double rounding of v * 2^20 once the scaled value exceeds 2^53.
double PaillierBound(size_t addends, double mag) {
  return static_cast<double>(addends + 1) *
         (std::ldexp(1.0, -20) + mag * std::ldexp(1.0, -50));
}
// CKKS is approximate; error grows with magnitude and addend count.
double CkksBound(size_t addends, double mag) {
  return static_cast<double>(addends) * (1e-3 + 1e-5 * mag);
}

HeBackend* BackendByName(const std::string& name) {
  if (name == "ckks") return CkksFixture()->get();
  if (name == "paillier") return PaillierFixture()->get();
  return PlainFixture()->get();
}

BackendCase CaseByName(const std::string& name) {
  // Paillier fixed-point encodes through int64: |v * 2^20| must stay well
  // under 2^63 even after summing a few addends.
  if (name == "ckks") return {"ckks", &CkksBound, 1e4};
  if (name == "paillier") return {"paillier", &PaillierBound, 1e12};
  return {"plain", &PlainBound, 1e12};
}

// Values that historically break encoders: exact zero, signed zero,
// denormal-scale doubles (encode to 0 within every scheme's precision),
// the fixed-point quantum, and the scheme's magnitude extremes.
std::vector<double> EdgeValues(const BackendCase& c) {
  return {0.0,
          -0.0,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          1e-300,
          -1e-300,
          std::ldexp(1.0, -20),
          -std::ldexp(1.0, -20),
          c.max_magnitude,
          -c.max_magnitude,
          c.max_magnitude * 0.5,
          -c.max_magnitude * 0.99};
}

std::vector<double> FuzzVector(Rng* rng, const BackendCase& c, size_t len) {
  const auto edges = EdgeValues(c);
  std::vector<double> v(len);
  for (double& x : v) {
    if (rng->Bernoulli(0.15)) {
      x = edges[rng->NextBounded(edges.size())];
    } else if (rng->Bernoulli(0.5)) {
      x = rng->Uniform(-100.0, 100.0);
    } else {
      // Log-uniform magnitudes across the scheme's range.
      const double mag = std::pow(10.0, rng->Uniform(-6.0, std::log10(c.max_magnitude)));
      x = rng->Bernoulli(0.5) ? mag : -mag;
    }
  }
  return v;
}

class HeRoundTripFuzzTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HeRoundTripFuzzTest, EncryptDecryptRandomVectors) {
  const BackendCase c = CaseByName(GetParam());
  HeBackend* be = BackendByName(GetParam());
  Rng rng(0xF0221 + std::string(GetParam()).size());
  for (int trial = 0; trial < 40; ++trial) {
    // Lengths straddle the CKKS slot boundary (512) to exercise chunking.
    const size_t len = 1 + rng.NextBounded(600);
    const auto values = FuzzVector(&rng, c, len);
    auto enc = be->Encrypt(values);
    ASSERT_TRUE(enc.ok()) << c.name << ": " << enc.status().ToString();
    EXPECT_EQ(enc->count, len);
    EXPECT_EQ(enc->ByteSize(), be->CiphertextBytes(len));
    auto dec = be->Decrypt(*enc);
    ASSERT_TRUE(dec.ok()) << c.name << ": " << dec.status().ToString();
    ASSERT_EQ(dec->size(), len);
    for (size_t i = 0; i < len; ++i) {
      EXPECT_NEAR((*dec)[i], values[i], c.bound(1, std::fabs(values[i])))
          << c.name << " trial " << trial << " index " << i;
    }
  }
}

TEST_P(HeRoundTripFuzzTest, HomomorphicSumRandomGroups) {
  const BackendCase c = CaseByName(GetParam());
  HeBackend* be = BackendByName(GetParam());
  Rng rng(0xADD5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t len = 1 + rng.NextBounded(64);
    const size_t parties = 2 + rng.NextBounded(3);  // 2..4 addends
    // Scale down so the fixed-point sum cannot overflow the decode range.
    const double cap = c.max_magnitude / static_cast<double>(parties);
    std::vector<std::vector<double>> plain(parties);
    std::vector<EncryptedVector> encs;
    encs.reserve(parties);
    double max_mag = 0.0;
    for (auto& v : plain) {
      v = FuzzVector(&rng, c, len);
      for (double& x : v) {
        if (std::fabs(x) > cap) x /= static_cast<double>(parties);
        max_mag = std::max(max_mag, std::fabs(x));
      }
      auto enc = be->Encrypt(v);
      ASSERT_TRUE(enc.ok()) << c.name << ": " << enc.status().ToString();
      encs.push_back(std::move(*enc));
    }
    std::vector<const EncryptedVector*> ptrs;
    for (const auto& e : encs) ptrs.push_back(&e);
    auto sum = be->Sum(ptrs);
    ASSERT_TRUE(sum.ok()) << c.name << ": " << sum.status().ToString();
    auto dec = be->Decrypt(*sum);
    ASSERT_TRUE(dec.ok()) << c.name << ": " << dec.status().ToString();
    ASSERT_EQ(dec->size(), len);
    for (size_t i = 0; i < len; ++i) {
      double expected = 0.0;
      for (const auto& v : plain) expected += v[i];
      EXPECT_NEAR((*dec)[i], expected, c.bound(parties, max_mag))
          << c.name << " trial " << trial << " index " << i;
    }
  }
}

// The NVI wrappers publish op counts to the registry; for any sequence of
// API calls the counters must equal the backend's own stats() delta, and
// EncryptBatch must publish exactly once (no double counting through the
// default batch hook).
TEST_P(HeRoundTripFuzzTest, MetricsCountersMatchApiCalls) {
  HeBackend* be = BackendByName(GetParam());
  obs::MetricsRegistry reg;
  be->ResetStats();
  be->set_metrics(&reg);

  auto ea = be->Encrypt({1.0, 2.0, 3.0});
  auto eb = be->Encrypt({0.5, -1.0, 4.0});
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto sum = be->Sum({&*ea, &*eb});
  ASSERT_TRUE(sum.ok());
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  auto batch = be->EncryptBatch({{1.0}, {2.0, 3.0}, {}});
  ASSERT_TRUE(batch.ok());
  for (const EncryptedVector& v : *batch) ASSERT_TRUE(be->Decrypt(v).ok());

  const HeOpStats& s = be->stats();
  EXPECT_EQ(reg.CounterValue("he.encrypt.count"), s.encrypt_ops);
  EXPECT_EQ(reg.CounterValue("he.encrypt.values"), s.values_encrypted);
  EXPECT_EQ(reg.CounterValue("he.decrypt.count"), s.decrypt_ops);
  EXPECT_EQ(reg.CounterValue("he.decrypt.values"), s.values_decrypted);
  EXPECT_EQ(reg.CounterValue("he.add.count"), s.add_ops);
  EXPECT_EQ(reg.CounterValue("he.add.values"), s.values_added);
  EXPECT_EQ(s.values_encrypted, 9u);  // 3 + 3 + (1 + 2 + 0)
  EXPECT_GE(s.encrypt_ops, 4u);       // >= one op per non-empty vector
  be->set_metrics(nullptr);  // the registry dies with this test
}

// Forked sessions inherit the registry and record to the shared striped
// counters; AbsorbStats must NOT double-publish what the fork already
// recorded live.
TEST_P(HeRoundTripFuzzTest, ForkRecordsToSharedRegistryOnce) {
  HeBackend* be = BackendByName(GetParam());
  obs::MetricsRegistry reg;
  be->ResetStats();
  be->set_metrics(&reg);

  auto fork = be->Fork(/*stream_seed=*/7);
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();
  EXPECT_EQ((*fork)->metrics(), &reg);

  auto enc = (*fork)->Encrypt({5.0, 6.0});
  ASSERT_TRUE(enc.ok());
  auto dec = (*fork)->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_NEAR((*dec)[0], 5.0, 1e-3);

  const uint64_t values_before_absorb = reg.CounterValue("he.encrypt.values");
  EXPECT_EQ(values_before_absorb, 2u);
  be->AbsorbStats((*fork)->stats());
  EXPECT_EQ(be->stats().values_encrypted, 2u);
  // The fold is bookkeeping only — registry counters must be unchanged.
  EXPECT_EQ(reg.CounterValue("he.encrypt.values"), values_before_absorb);
  be->set_metrics(nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, HeRoundTripFuzzTest,
                         ::testing::Values("ckks", "paillier", "plain"));

// Ciphertexts from forked sessions interoperate: encrypt on two forks,
// aggregate and decrypt on the parent (the deployment's actual dataflow).
TEST(HeRoundTripFuzzCrossSession, ForkedCiphertextsAggregate) {
  HeBackend* be = CkksFixture()->get();
  auto f1 = be->Fork(11);
  auto f2 = be->Fork(12);
  ASSERT_TRUE(f1.ok() && f2.ok());
  auto e1 = (*f1)->Encrypt({1.0, -2.0, 3.5});
  auto e2 = (*f2)->Encrypt({0.25, 2.0, -3.0});
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto sum = be->Sum({&*e1, &*e2});
  ASSERT_TRUE(sum.ok());
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  EXPECT_NEAR((*dec)[0], 1.25, 2e-3);
  EXPECT_NEAR((*dec)[1], 0.0, 2e-3);
  EXPECT_NEAR((*dec)[2], 0.5, 2e-3);
}

// Determinism: the same (keys, stream_seed) must yield bit-identical
// ciphertext streams — the property the parallel pipeline leans on.
TEST(HeRoundTripFuzzCrossSession, ForkStreamsAreDeterministic) {
  for (HeBackend* be : {CkksFixture()->get(), PaillierFixture()->get()}) {
    auto fa = be->Fork(99);
    auto fb = be->Fork(99);
    ASSERT_TRUE(fa.ok() && fb.ok());
    auto ea = (*fa)->Encrypt({1.5, 2.5});
    auto eb = (*fb)->Encrypt({1.5, 2.5});
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_EQ(ea->blob, eb->blob) << be->name();
  }
}

}  // namespace
}  // namespace vfps::he
