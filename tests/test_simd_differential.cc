// SIMD differential harness: every vector backend against its always-built
// scalar reference, plus the end-to-end consequence of the contract.
//
// The contracts proven here (see docs/KERNELS.md):
//   1. NTT forward/inverse are BIT-IDENTICAL across scalar/AVX2/AVX-512 for
//      200 random NTT-friendly moduli at sizes 2^4..2^14 (seeded fuzz).
//   2. The dispatched RNS pointwise ops (add/negate/pointwise-mul) are
//      bit-identical to their scalar references, including ragged tails
//      (n mod 8 in 1..7).
//   3. The double kernels (SquaredNorm/DotProduct/BlockSquaredDistances)
//      are bit-identical scalar-vs-SIMD (the stronger property the
//      implementation maintains by preserving accumulation order), and agree
//      with an independently-associated naive formulation exactly on integer
//      grids and to 1e-9 relative tolerance on well-scaled doubles —
//      including denormal and ±DBL_MAX inputs and unaligned row strides.
//   4. SmallestK clamps k >= N and is ISA-independent.
//   5. VFPS_FORCE_SCALAR pins ResolveIsa() to the scalar reference.
//   6. The CRC-32 framing kernel (carry-less-multiply fold) returns the byte
//      loop's value for every length and alignment, one-shot or streamed
//      through Crc32Accumulator across arbitrary split points.
//   7. End to end: a full VFPS-SM selection (kBase and kFagin, CKKS packed
//      backend, 1/2/8 threads) under VFPS_FORCE_SCALAR equals the dispatched
//      run — identical SelectionOutcome, identical checkpoint bytes,
//      identical merged counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "he/modarith.h"
#include "he/ntt.h"
#include "he/poly_simd.h"
#include "ml/kernels.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

// ---------------------------------------------------------------------------
// Harness: ISA pinning

/// Pins simd::ActiveIsa() for a scope and restores the previous value.
class IsaPin {
 public:
  explicit IsaPin(simd::Isa isa) : prev_(simd::ActiveIsa()) {
    simd::SetActiveIsa(isa);
  }
  ~IsaPin() { simd::SetActiveIsa(prev_); }
  IsaPin(const IsaPin&) = delete;
  IsaPin& operator=(const IsaPin&) = delete;

 private:
  simd::Isa prev_;
};

/// The vector backends this host can actually run (empty on a pre-AVX2 or
/// non-x86 host, where every check below degenerates to scalar-vs-scalar and
/// passes trivially — the suite still exercises the dispatch plumbing).
std::vector<simd::Isa> VectorIsas() {
  std::vector<simd::Isa> isas;
  const simd::Isa widest = simd::DetectCpuIsa();
  if (widest >= simd::Isa::kAvx2) isas.push_back(simd::Isa::kAvx2);
  if (widest >= simd::Isa::kAvx512) isas.push_back(simd::Isa::kAvx512);
  return isas;
}

// ---------------------------------------------------------------------------
// 1. NTT bit-identity fuzz

TEST(SimdNttDifferentialTest, ForwardAndInverseBitIdenticalAcrossModuli) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xD1FFE7);
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int log_n = 4 + static_cast<int>(rng.NextBounded(11));  // 2^4..2^14
    const size_t n = size_t{1} << log_n;
    // NTT-friendly prime: q ≡ 1 (mod 2n), q < 2^62 (lazy-range bound).
    const int bits = 30 + static_cast<int>(rng.NextBounded(29));  // 30..58
    auto prime = he::GeneratePrime(bits, 2 * n);
    ASSERT_TRUE(prime.ok()) << prime.status().ToString();
    auto tables = he::NttTables::Create(n, *prime);
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();

    std::vector<uint64_t> input(n);
    for (auto& v : input) v = rng.NextBounded(*prime);

    std::vector<uint64_t> ref = input;
    tables->ForwardScalar(ref.data());
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      std::vector<uint64_t> got = input;
      tables->Forward(got.data());
      ASSERT_EQ(got, ref) << "forward " << simd::IsaName(isa) << " n=" << n
                          << " q=" << *prime << " trial=" << trial;
    }

    // Inverse from evaluation form (ref), back to the original input.
    std::vector<uint64_t> inv_ref = ref;
    tables->InverseScalar(inv_ref.data());
    ASSERT_EQ(inv_ref, input) << "scalar roundtrip n=" << n << " q=" << *prime;
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      std::vector<uint64_t> got = ref;
      tables->Inverse(got.data());
      ASSERT_EQ(got, inv_ref) << "inverse " << simd::IsaName(isa) << " n=" << n
                              << " q=" << *prime << " trial=" << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. RNS pointwise ops

// Sizes that cover the vector body, every ragged tail n mod 8 in 1..7, and
// the degenerate small cases the tail loops handle alone.
const size_t kRaggedSizes[] = {0,  1,  2,  3,  5,  7,  8,  9,  12, 15,
                               17, 25, 31, 33, 63, 64, 65, 100, 127, 256};

TEST(SimdRnsDifferentialTest, PointwiseOpsBitIdentical) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xBA77E7);
  for (int trial = 0; trial < 50; ++trial) {
    // Arbitrary odd modulus below 2^62 — the pointwise ops do not need
    // NTT-friendliness (only the transform does).
    const uint64_t q =
        (rng.Next() % ((uint64_t{1} << 62) - 3)) | 1;
    if (q < 3) continue;
    const he::Modulus m(q);
    for (size_t n : kRaggedSizes) {
      std::vector<uint64_t> a(n), b(n);
      for (auto& v : a) v = rng.NextBounded(q);
      for (auto& v : b) v = rng.NextBounded(q);

      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        const char* name = simd::IsaName(isa);

        std::vector<uint64_t> ref = a, got = a;
        he::detail::AddModScalar(ref.data(), b.data(), n, q);
        he::detail::AddModVec(got.data(), b.data(), n, q);
        ASSERT_EQ(got, ref) << "add " << name << " n=" << n << " q=" << q;

        ref = a;
        got = a;
        he::detail::NegateModScalar(ref.data(), n, q);
        he::detail::NegateModVec(got.data(), n, q);
        ASSERT_EQ(got, ref) << "negate " << name << " n=" << n << " q=" << q;

        ref = a;
        got = a;
        he::detail::MulModBarrettScalar(ref.data(), b.data(), n, m);
        he::detail::MulModBarrettVec(got.data(), b.data(), n, m);
        ASSERT_EQ(got, ref) << "mul " << name << " n=" << n << " q=" << q;
      }
    }
  }
}

TEST(SimdRnsDifferentialTest, BarrettMulAcceptsLazyInputs) {
  // MulModBarrett is documented for ANY 64-bit inputs (the full 128-bit
  // Barrett chain); fuzz with completely unreduced operands.
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x1A2B3C);
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t q = (rng.Next() % ((uint64_t{1} << 62) - 3)) | 1;
    if (q < 3) continue;
    const he::Modulus m(q);
    for (size_t n : {size_t{13}, size_t{64}, size_t{65}}) {
      std::vector<uint64_t> a(n), b(n);
      for (auto& v : a) v = rng.Next();
      for (auto& v : b) v = rng.Next();
      std::vector<uint64_t> ref = a;
      he::detail::MulModBarrettScalar(ref.data(), b.data(), n, m);
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        std::vector<uint64_t> got = a;
        he::detail::MulModBarrettVec(got.data(), b.data(), n, m);
        ASSERT_EQ(got, ref) << "lazy mul " << simd::IsaName(isa) << " n=" << n
                            << " q=" << q;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Double kernels

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdDoubleKernelTest, DotAndNormBitIdenticalToScalar) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xF00D);
  for (int trial = 0; trial < 30; ++trial) {
    for (size_t n : kRaggedSizes) {
      std::vector<double> a(n), b(n);
      for (auto& v : a) v = rng.Uniform(-100.0, 100.0);
      for (auto& v : b) v = rng.Uniform(-100.0, 100.0);
      const double norm_ref = ml::SquaredNormScalar(a.data(), n);
      const double dot_ref = ml::DotProductScalar(a.data(), b.data(), n);
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        EXPECT_TRUE(BitEqual(ml::SquaredNorm(a.data(), n), norm_ref))
            << "norm " << simd::IsaName(isa) << " n=" << n;
        EXPECT_TRUE(BitEqual(ml::DotProduct(a.data(), b.data(), n), dot_ref))
            << "dot " << simd::IsaName(isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdDoubleKernelTest, ExtremeValuesStayBitIdentical) {
  // Denormals, ±DBL_MAX (products overflow to ±inf identically on both
  // paths), zeros of both signs, and ordinary magnitudes mixed together.
  const std::vector<simd::Isa> isas = VectorIsas();
  const double specials[] = {0.0,      -0.0,      DBL_MIN / 4,  -DBL_MIN / 2,
                             DBL_MAX,  -DBL_MAX,  DBL_EPSILON,  -1.5,
                             1e308,    -1e-308,   42.0,         -7.25};
  Rng rng(0xDE0);
  for (size_t n : {size_t{4}, size_t{7}, size_t{12}, size_t{33}}) {
    std::vector<double> a(n), b(n);
    for (size_t j = 0; j < n; ++j) {
      a[j] = specials[rng.NextBounded(12)];
      b[j] = specials[rng.NextBounded(12)];
    }
    const double norm_ref = ml::SquaredNormScalar(a.data(), n);
    const double dot_ref = ml::DotProductScalar(a.data(), b.data(), n);
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      EXPECT_TRUE(BitEqual(ml::SquaredNorm(a.data(), n), norm_ref))
          << "norm " << simd::IsaName(isa) << " n=" << n;
      EXPECT_TRUE(BitEqual(ml::DotProduct(a.data(), b.data(), n), dot_ref))
          << "dot " << simd::IsaName(isa) << " n=" << n;
    }
  }
}

TEST(SimdDoubleKernelTest, UnalignedStridesBitIdentical) {
  // Rows at every 8-byte (not 32-byte) offset: the kernels use unaligned
  // loads, so the result must not depend on pointer alignment.
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xA11);
  std::vector<double> pool(512);
  for (auto& v : pool) v = rng.Uniform(-10.0, 10.0);
  for (size_t off_a = 0; off_a < 8; ++off_a) {
    for (size_t off_b = 0; off_b < 4; ++off_b) {
      const size_t n = 67;  // ragged on purpose
      const double* a = pool.data() + off_a;
      const double* b = pool.data() + 128 + off_b;
      const double dot_ref = ml::DotProductScalar(a, b, n);
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        EXPECT_TRUE(BitEqual(ml::DotProduct(a, b, n), dot_ref))
            << simd::IsaName(isa) << " off_a=" << off_a << " off_b=" << off_b;
      }
    }
  }
}

// Independently-associated oracle: naive sequential sum of squared
// differences, deliberately NOT the norm-decomposed form.
double NaiveSquaredDistance(const double* q, const double* x, size_t n) {
  double acc = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double d = q[j] - x[j];
    acc += d * d;
  }
  return acc;
}

TEST(SimdDistanceKernelTest, BlockDistancesMatchScalarAndTolerateNaive) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xD157);
  for (size_t cols : {size_t{3}, size_t{7}, size_t{12}, size_t{33}}) {
    // Odd column counts make every row after the first start unaligned in
    // the packed layout — the strided-rows case of the contract.
    data::Dataset data(40, cols, 2);
    for (size_t i = 0; i < 40; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        data.Set(i, j, rng.Uniform(-5.0, 5.0));
      }
    }
    std::vector<size_t> columns(cols);
    for (size_t j = 0; j < cols; ++j) columns[j] = j;
    const ml::FeatureBlock block(data, columns);
    std::vector<double> query(cols);
    for (auto& v : query) v = rng.Uniform(-5.0, 5.0);
    const double q_norm = ml::SquaredNormScalar(query.data(), cols);

    std::vector<double> ref(40), got(40);
    ml::BlockSquaredDistancesScalar(block, query.data(), q_norm, 0, 40,
                                    ref.data());
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      ml::BlockSquaredDistances(block, query.data(), q_norm, 0, 40,
                                got.data());
      for (size_t i = 0; i < 40; ++i) {
        EXPECT_TRUE(BitEqual(got[i], ref[i]))
            << simd::IsaName(isa) << " cols=" << cols << " row=" << i;
      }
    }
    // Documented cross-formulation contract: 1e-9 relative tolerance against
    // the naive association for well-scaled doubles.
    for (size_t i = 0; i < 40; ++i) {
      const double naive = NaiveSquaredDistance(query.data(), block.row(i),
                                                cols);
      const double scale = std::max({1.0, std::abs(naive), std::abs(ref[i])});
      EXPECT_LE(std::abs(ref[i] - naive) / scale, 1e-9)
          << "cols=" << cols << " row=" << i;
    }
  }
}

TEST(SimdDistanceKernelTest, IntegerGridsAreExactAcrossFormulations) {
  // Products of small integers are exactly representable, so the
  // norm-decomposed kernel, the naive oracle, and every ISA agree exactly.
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x6121D);
  const size_t cols = 9, rows = 25;
  data::Dataset data(rows, cols, 2);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      data.Set(i, j, static_cast<double>(rng.NextBounded(41)) - 20.0);
    }
  }
  std::vector<size_t> columns(cols);
  for (size_t j = 0; j < cols; ++j) columns[j] = j;
  const ml::FeatureBlock block(data, columns);
  std::vector<double> query(cols);
  for (auto& v : query) {
    v = static_cast<double>(rng.NextBounded(41)) - 20.0;
  }
  const double q_norm = ml::SquaredNormScalar(query.data(), cols);
  std::vector<double> out(rows);
  for (simd::Isa isa : isas) {
    IsaPin pin(isa);
    ml::BlockSquaredDistances(block, query.data(), q_norm, 0, rows,
                              out.data());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(out[i], NaiveSquaredDistance(query.data(), block.row(i), cols))
          << simd::IsaName(isa) << " row=" << i;
    }
  }
}

TEST(SimdDistanceKernelTest, SmallestKClampsAndIgnoresIsa) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.0, 5.0};
  // k >= N clamps to N; ties break by lower index (1 before 3).
  const std::vector<uint64_t> expect = {1, 3, 0, 2, 4};
  EXPECT_EQ(ml::SmallestK(values, 99), expect);
  EXPECT_EQ(ml::SmallestK(values, 5), expect);
  for (simd::Isa isa : VectorIsas()) {
    IsaPin pin(isa);
    EXPECT_EQ(ml::SmallestK(values, 99), expect) << simd::IsaName(isa);
  }
}

// ---------------------------------------------------------------------------
// 4. Environment override

TEST(SimdDispatchTest, ForceScalarEnvPinsResolveIsa) {
  // ResolveIsa reads the environment on every call, so the override is
  // testable in-process. ActiveIsa() caching is separate (SetActiveIsa).
  ASSERT_EQ(setenv("VFPS_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::Isa::kScalar);
  ASSERT_EQ(setenv("VFPS_FORCE_SCALAR", "0", 1), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::DetectCpuIsa());
  ASSERT_EQ(setenv("VFPS_FORCE_SCALAR", "", 1), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::DetectCpuIsa());
  ASSERT_EQ(unsetenv("VFPS_FORCE_SCALAR"), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::DetectCpuIsa());
}

TEST(SimdDispatchTest, SetActiveIsaClampsToHost) {
  const simd::Isa widest = simd::DetectCpuIsa();
  const simd::Isa prev = simd::ActiveIsa();
  EXPECT_EQ(simd::SetActiveIsa(simd::Isa::kAvx512),
            std::min(simd::Isa::kAvx512, widest));
  EXPECT_EQ(simd::SetActiveIsa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  simd::SetActiveIsa(prev);
}

// ---------------------------------------------------------------------------
// 5. CRC-32 framing kernel

/// The ISAs a CRC check runs under: the dispatch as this process resolved it
/// (scalar under VFPS_FORCE_SCALAR) plus every vector backend pinned.
std::vector<simd::Isa> CrcIsas() {
  std::vector<simd::Isa> isas = {simd::ActiveIsa()};
  for (simd::Isa isa : VectorIsas()) isas.push_back(isa);
  return isas;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(SimdCrc32Test, EveryShortLengthAndOffsetMatchesScalar) {
  // Lengths 0..1100 at start offsets 0..15 cover every fold entry (the
  // 16-byte single fold below 64 bytes, the 4 x 128-bit fold above it) and
  // every tail length the byte loop finishes.
  const std::vector<uint8_t> buf = RandomBytes(1100 + 16, 41);
  std::vector<uint32_t> want;
  {
    IsaPin pin(simd::Isa::kScalar);
    for (size_t off = 0; off < 16; ++off) {
      for (size_t n = 0; n <= 1100; ++n) {
        want.push_back(Crc32(buf.data() + off, n));
      }
    }
  }
  for (simd::Isa isa : CrcIsas()) {
    IsaPin pin(isa);
    size_t i = 0;
    for (size_t off = 0; off < 16; ++off) {
      for (size_t n = 0; n <= 1100; ++n, ++i) {
        ASSERT_EQ(Crc32(buf.data() + off, n), want[i])
            << simd::IsaName(isa) << " offset " << off << " length " << n;
      }
    }
  }
}

TEST(SimdCrc32Test, CiphertextSizedFramesMatchScalar) {
  // One packed CKKS ciphertext blob (65,565 bytes: a 4-byte chunk count and
  // one 65,561-byte ciphertext), 131,072 bytes plus ragged tails, and 917,516
  // bytes (seven 131,072-byte payloads behind a 12-byte frame header).
  const std::vector<uint8_t> buf = RandomBytes(917516, 43);
  for (size_t n : {size_t{65565}, size_t{131072}, size_t{131073},
                   size_t{131079}, size_t{131087}, size_t{131088},
                   size_t{131135}, size_t{917516}}) {
    uint32_t want;
    {
      IsaPin pin(simd::Isa::kScalar);
      want = Crc32(buf.data(), n);
    }
    for (simd::Isa isa : CrcIsas()) {
      IsaPin pin(isa);
      EXPECT_EQ(Crc32(buf.data(), n), want) << simd::IsaName(isa) << " " << n;
    }
  }
}

TEST(SimdCrc32Test, AccumulatorAcrossSplitsEqualsOneShot) {
  // The fold resumes from the running state, so a stream cut into pieces
  // under 64 bytes and pieces not divisible by 16 must hash like one call.
  const std::vector<uint8_t> buf = RandomBytes(6000, 47);
  Rng rng(53);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.Next() % buf.size();
    uint32_t want;
    {
      IsaPin pin(simd::Isa::kScalar);
      want = Crc32(buf.data(), n);
    }
    // Piece sizes drawn per trial from a small, a sub-64 and a wide range.
    const size_t spans[] = {17, 64, 700};
    const size_t span = spans[trial % 3];
    std::vector<size_t> cuts;
    for (size_t at = 0; at < n;) {
      const size_t piece = std::min(n - at, rng.Next() % span);
      cuts.push_back(piece);
      at += piece;
    }
    for (simd::Isa isa : CrcIsas()) {
      IsaPin pin(isa);
      Crc32Accumulator acc;
      size_t at = 0;
      for (size_t piece : cuts) {
        acc.Update(buf.data() + at, piece);
        at += piece;
      }
      ASSERT_EQ(acc.value(), want)
          << simd::IsaName(isa) << " trial " << trial << " length " << n;
    }
  }
}

TEST(SimdCrc32Test, CheckVectorHoldsOnEveryIsa) {
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  std::vector<simd::Isa> isas = CrcIsas();
  isas.push_back(simd::Isa::kScalar);
  for (simd::Isa isa : isas) {
    IsaPin pin(isa);
    EXPECT_EQ(Crc32(check, sizeof(check)), 0xCBF43926u) << simd::IsaName(isa);
    // The check string repeated 8 times (72 bytes) reaches the 4-way fold.
    Crc32Accumulator once;
    for (int i = 0; i < 8; ++i) once.Update(check, sizeof(check));
    std::vector<uint8_t> repeated;
    for (int i = 0; i < 8; ++i) {
      repeated.insert(repeated.end(), check, check + sizeof(check));
    }
    EXPECT_EQ(Crc32(repeated), once.value()) << simd::IsaName(isa);
  }
}

// ---------------------------------------------------------------------------
// 6. End-to-end: forced-scalar selection == dispatched selection

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Deployment Make() {
    Deployment d;
    data::SyntheticConfig config;
    config.num_samples = 400;
    config.num_features = 12;
    config.num_informative = 6;
    config.num_redundant = 3;
    config.seed = 31;
    auto generated = data::GenerateClassification(config);
    d.split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
    data::StandardizeSplit(&d.split).Abort("standardize");
    d.partition =
        data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
    // CKKS with the default packed (slot-batched) encoding — the path whose
    // NTT and pointwise inner loops the SIMD backends vectorize.
    he::CkksParams params;
    params.poly_degree = 1024;
    d.backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
    return d;
  }
};

struct E2eArtifacts {
  core::SelectionOutcome outcome;
  std::vector<uint8_t> checkpoint_bytes;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

E2eArtifacts RunSelection(simd::Isa isa, vfl::KnnOracleMode mode,
                          size_t threads) {
  IsaPin pin(isa);
  Deployment d = Deployment::Make();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  obs::MetricsRegistry obs;
  core::SelectionCheckpoint ckp;
  core::SelectionContext ctx;
  ctx.split = &d.split;
  ctx.partition = &d.partition;
  ctx.backend = d.backend.get();
  ctx.network = &d.network;
  ctx.cost = &d.cost;
  ctx.clock = &d.clock;
  ctx.pool = pool.get();
  ctx.obs = &obs;
  ctx.checkpoint = &ckp;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 8;
  ctx.seed = 11;
  core::VfpsSmSelector selector(mode);
  auto outcome = selector.Select(ctx, 2);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  E2eArtifacts out;
  if (outcome.ok()) out.outcome = outcome.MoveValueUnsafe();
  out.checkpoint_bytes = ckp.Serialize();
  out.counters = obs.CounterEntries();
  return out;
}

TEST(SimdEndToEndTest, ForcedScalarSelectionEqualsDispatched) {
  if (VectorIsas().empty()) {
    GTEST_SKIP() << "no vector backend on this host";
  }
  const simd::Isa dispatched = simd::DetectCpuIsa();
  for (vfl::KnnOracleMode mode :
       {vfl::KnnOracleMode::kBase, vfl::KnnOracleMode::kFagin}) {
    // Scalar baseline at one thread; every (isa, threads) cell must match.
    const E2eArtifacts ref = RunSelection(simd::Isa::kScalar, mode, 1);
    ASSERT_FALSE(ref.outcome.selected.empty());
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const E2eArtifacts got = RunSelection(dispatched, mode, threads);
      const char* label = mode == vfl::KnnOracleMode::kBase ? "base" : "fagin";
      EXPECT_EQ(got.outcome.selected, ref.outcome.selected)
          << label << " threads=" << threads;
      EXPECT_EQ(got.outcome.scores, ref.outcome.scores)
          << label << " threads=" << threads;
      EXPECT_EQ(got.outcome.quarantined, ref.outcome.quarantined)
          << label << " threads=" << threads;
      EXPECT_EQ(got.checkpoint_bytes, ref.checkpoint_bytes)
          << label << " threads=" << threads;
      EXPECT_EQ(got.counters, ref.counters)
          << label << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vfps
