// Kernel-level microbenchmarks feeding the bench-regression harness
// (tools/run_bench.sh -> BENCH_*.json). Benchmarks are named after the
// OPERATION the product executes, not the implementation, so the harness can
// compare runs across PRs: the same name always measures "what the product
// does for this operation today".
//
// Coverage: 64-bit modular multiplication, the negacyclic NTT, the CKKS
// ciphertext ops on the selection hot path (encrypt/decrypt/add),
// the plaintext distance kernels behind KnnClassifier / FederatedKnnOracle,
// the bounded top-k selection, the CRC-32 that frames every message on a
// faulted link, and one end-to-end encrypted-KNN query.

// Per-ISA rows: the ISA-sensitive benchmarks also register pinned variants
// named `<bench>/isa:<scalar|avx2|avx512>` (only for ISAs the host supports),
// and every dispatched ISA-sensitive row carries an `isa` counter with the
// numeric simd::Isa it actually ran on. tools/bench_report.py uses both: the
// pinned rows yield within-run `speedup_vs_scalar_isa`, and the counter stops
// the regression gate from comparing a row against a baseline measured on a
// different ISA (see docs/KERNELS.md).

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "he/backend.h"
#include "he/ckks.h"
#include "he/modarith.h"
#include "he/ntt.h"
#include "ml/kernels.h"
#include "ml/knn.h"
#include "simd/simd.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

// Tags an ISA-sensitive benchmark's row with the backend it dispatched to.
void SetIsaCounter(benchmark::State& state) {
  state.counters["isa"] = static_cast<double>(simd::ActiveIsa());
}

// ---------------------------------------------------------------------------
// Modular arithmetic
// ---------------------------------------------------------------------------

constexpr size_t kMulOps = 4096;

struct MulModFixture {
  uint64_t q;
  std::vector<uint64_t> a, b;

  MulModFixture() {
    q = *he::GeneratePrime(54, 2 * 4096);
    Rng rng(17);
    a.resize(kMulOps);
    b.resize(kMulOps);
    for (size_t i = 0; i < kMulOps; ++i) {
      a[i] = rng.NextBounded(q);
      b[i] = rng.NextBounded(q);
    }
  }
};

void BM_MulModU128(benchmark::State& state) {
  MulModFixture f;
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < kMulOps; ++i) acc ^= he::MulMod(f.a[i], f.b[i], f.q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kMulOps));
}
BENCHMARK(BM_MulModU128);

void BM_MulModBarrett(benchmark::State& state) {
  MulModFixture f;
  const he::Modulus m(f.q);
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < kMulOps; ++i) acc ^= he::MulMod(f.a[i], f.b[i], m);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kMulOps));
}
BENCHMARK(BM_MulModBarrett);

// Multiplication by a fixed operand with a precomputed Shoup quotient — the
// form every NTT butterfly executes.
void BM_MulModShoup(benchmark::State& state) {
  MulModFixture f;
  std::vector<uint64_t> bs(kMulOps);
  for (size_t i = 0; i < kMulOps; ++i) {
    bs[i] = he::ShoupPrecompute(f.b[i], f.q);
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < kMulOps; ++i) {
      acc ^= he::MulModShoup(f.a[i], f.b[i], bs[i], f.q);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kMulOps));
}
BENCHMARK(BM_MulModShoup);

// ---------------------------------------------------------------------------
// Negacyclic NTT
// ---------------------------------------------------------------------------

void NttForwardBody(benchmark::State& state, size_t n) {
  auto prime = he::GeneratePrime(54, 2 * n);
  auto tables = he::NttTables::Create(n, *prime);
  Rng rng(1);
  std::vector<uint64_t> poly(n);
  for (auto& v : poly) v = rng.NextBounded(*prime);
  for (auto _ : state) {
    tables->Forward(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(uint64_t)));
  SetIsaCounter(state);
}

void BM_NttForward(benchmark::State& state) {
  NttForwardBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_NttForward)->Arg(1024)->Arg(4096);

void NttInverseBody(benchmark::State& state, size_t n) {
  auto prime = he::GeneratePrime(54, 2 * n);
  auto tables = he::NttTables::Create(n, *prime);
  Rng rng(2);
  std::vector<uint64_t> poly(n);
  for (auto& v : poly) v = rng.NextBounded(*prime);
  for (auto _ : state) {
    tables->Inverse(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(uint64_t)));
  SetIsaCounter(state);
}

void BM_NttInverse(benchmark::State& state) {
  NttInverseBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_NttInverse)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// CKKS scheme operations (the encrypted-KNN oracle's per-query HE cost)
// ---------------------------------------------------------------------------

struct CkksKernelFixture {
  std::shared_ptr<const he::CkksContext> ctx;
  Rng rng{7};
  he::CkksSecretKey sk;
  he::CkksPublicKey pk;
  std::vector<double> values;

  explicit CkksKernelFixture(size_t degree) {
    he::CkksParams params;
    params.poly_degree = degree;
    ctx = he::CkksContext::Create(params).ValueOrDie();
    sk = ctx->GenerateSecretKey(&rng);
    pk = ctx->GeneratePublicKey(sk, &rng);
    values.resize(ctx->slot_count());
    Rng vals(3);
    for (auto& v : values) v = vals.Uniform(-100.0, 100.0);
  }
};

void BM_CkksEncrypt(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto ct = f.ctx->EncryptVector(f.pk, f.values, &f.rng);
    benchmark::DoNotOptimize(ct);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
}
BENCHMARK(BM_CkksEncrypt)->Arg(4096);

void BM_CkksDecrypt(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  auto ct = f.ctx->EncryptVector(f.pk, f.values, &f.rng).ValueOrDie();
  for (auto _ : state) {
    auto values = f.ctx->DecryptVector(f.sk, ct, f.values.size());
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
}
BENCHMARK(BM_CkksDecrypt)->Arg(4096);

void BM_CkksAdd(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  auto a = f.ctx->EncryptVector(f.pk, f.values, &f.rng).ValueOrDie();
  auto b = f.ctx->EncryptVector(f.pk, f.values, &f.rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx->AddInPlaceCt(&a, b));
  }
}
BENCHMARK(BM_CkksAdd)->Arg(4096);

// ---------------------------------------------------------------------------
// Distance kernels + bounded top-k
// ---------------------------------------------------------------------------

struct DistanceFixture {
  data::Dataset train;
  data::Dataset test;
  data::VerticalPartition partition;

  DistanceFixture(size_t rows, size_t features, size_t parties) {
    data::SyntheticConfig config;
    config.num_samples = rows + 64;
    config.num_features = features;
    config.num_informative = features / 2;
    config.num_redundant = features / 4;
    config.seed = 9;
    auto generated = data::GenerateClassification(config).ValueOrDie();
    auto split =
        data::SplitDataset(generated.data,
                           static_cast<double>(rows) /
                               static_cast<double>(config.num_samples),
                           0.0, 2)
            .ValueOrDie();
    train = std::move(split.train);
    test = std::move(split.test);
    partition = data::RandomVerticalPartition(features, parties, 3).ValueOrDie();
  }
};

void BM_KnnNeighbors(benchmark::State& state) {
  DistanceFixture f(static_cast<size_t>(state.range(0)), 16, 4);
  ml::KnnClassifier knn(10);
  (void)knn.Fit(f.train, {});
  size_t qi = 0;
  for (auto _ : state) {
    auto neighbors = knn.Neighbors(f.test.Row(qi));
    benchmark::DoNotOptimize(neighbors);
    qi = (qi + 1) % f.test.num_samples();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.train.num_samples()));
}
BENCHMARK(BM_KnnNeighbors)->Arg(2000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_FedKnnClassify(benchmark::State& state) {
  DistanceFixture f(static_cast<size_t>(state.range(0)), 16, 4);
  auto backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  vfl::FederatedKnnOracle oracle(&f.train, &f.partition, backend.get(),
                                 &network, &cost, &clock);
  const std::vector<size_t> all = {0, 1, 2, 3};
  for (auto _ : state) {
    auto preds = oracle.ClassifyPredictions(f.test, all, 10, false);
    benchmark::DoNotOptimize(preds);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.test.num_samples()));
}
BENCHMARK(BM_FedKnnClassify)->Arg(2000)->Unit(benchmark::kMillisecond);

// The dispatched fixed-association dot kernel in isolation (the inner loop
// of every plaintext distance computation).
void DotProductBody(benchmark::State& state, size_t n) {
  Rng rng(27);
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.Uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
  for (auto _ : state) {
    double dot = ml::DotProduct(a.data(), b.data(), n);
    benchmark::DoNotOptimize(dot);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  SetIsaCounter(state);
}

void BM_DotProduct(benchmark::State& state) {
  DotProductBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_DotProduct)->Arg(1024);

// The norm-decomposed block distance kernel over a cached FeatureBlock — the
// unit of work KnnClassifier/FederatedKnnOracle repeat per query. 64 features
// keeps the per-row dot in the vector body rather than the ragged tail.
void BlockSquaredDistancesBody(benchmark::State& state, size_t rows) {
  constexpr size_t kFeatures = 64;
  data::Dataset data(rows, kFeatures, 2);
  Rng rng(29);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) {
      data.Set(i, j, rng.Uniform(-1.0, 1.0));
    }
  }
  const ml::FeatureBlock block(data);
  std::vector<double> query(kFeatures);
  for (auto& v : query) v = rng.Uniform(-1.0, 1.0);
  const double q_norm = ml::SquaredNorm(query.data(), kFeatures);
  std::vector<double> out(rows);
  for (auto _ : state) {
    ml::BlockSquaredDistances(block, query.data(), q_norm, 0, rows,
                              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(rows * kFeatures * sizeof(double)));
  SetIsaCounter(state);
}

void BM_BlockSquaredDistances(benchmark::State& state) {
  BlockSquaredDistancesBody(state, static_cast<size_t>(state.range(0)));
}
// 256 rows (128 KiB block) stays cache-resident and exposes the kernel's
// compute speed; 2000 rows (1 MiB) spills toward L3 and is bandwidth-bound,
// which is the regime the selector actually runs in for large parties.
BENCHMARK(BM_BlockSquaredDistances)->Arg(256)->Arg(2000);

// The bounded top-k selection over a full distance vector, exactly as the
// leader ranks decrypted aggregates: k smallest by (value, index).
void BM_SmallestK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = 10;
  Rng rng(23);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.Uniform(0.0, 100.0);
  for (auto _ : state) {
    auto idx = ml::SmallestK(values, k);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SmallestK)->Arg(16384)->Unit(benchmark::kMicrosecond);

// The CRC-32 ReliableChannel computes once per framed message; 131,072 bytes
// is about two packed CKKS ciphertexts (N = 4096, one 59-bit prime: 65,561
// bytes each).
void Crc32Body(benchmark::State& state, size_t n) {
  Rng rng(31);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    uint32_t crc = Crc32(bytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
  SetIsaCounter(state);
}

void BM_Crc32(benchmark::State& state) {
  Crc32Body(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Crc32)->Arg(131072)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// End-to-end encrypted-KNN query (BASE mode: encrypt-all, the paper's
// dominant cost). Reported time covers Run() over `kQueries` queries; the
// per-query latency is time / kQueries.
// ---------------------------------------------------------------------------

// Shared runner: BASE-mode Run() with a configurable CKKS packing mode and
// query grouping. Reports ciphertext operations (encrypt + add + decrypt,
// HeOpStats `*_ops`) and packed slots per query as user counters, so the
// packed-vs-scalar and grouped-vs-ungrouped op reductions are visible in the
// JSON artifact next to the wall-clock numbers.
void RunEncKnnBench(benchmark::State& state, size_t queries,
                    he::CkksPacking packing, size_t query_group) {
  DistanceFixture f(static_cast<size_t>(state.range(0)), 16, 4);
  he::CkksParams params;
  params.poly_degree = 1024;
  auto backend = he::CreateCkksBackend(params, 5, packing).MoveValueUnsafe();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  vfl::FederatedKnnOracle oracle(&f.train, &f.partition, backend.get(),
                                 &network, &cost, &clock);
  vfl::FedKnnConfig config;
  config.mode = vfl::KnnOracleMode::kBase;
  config.k = 10;
  config.num_queries = queries;
  config.query_group = query_group;
  uint64_t ct_ops = 0;
  uint64_t values = 0;
  for (auto _ : state) {
    vfl::FedKnnStats stats;
    auto result = oracle.Run(config, &stats);
    benchmark::DoNotOptimize(result);
    ct_ops = stats.he_ops.encrypt_ops + stats.he_ops.add_ops +
             stats.he_ops.decrypt_ops;
    values = stats.he_ops.values_encrypted;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(queries));
  state.counters["ct_ops_per_query"] =
      static_cast<double>(ct_ops) / static_cast<double>(queries);
  state.counters["slots_per_query"] =
      static_cast<double>(values) / static_cast<double>(queries);
}

void BM_EncKnnQuery(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/4, he::CkksPacking::kPacked,
                 /*query_group=*/1);
}
BENCHMARK(BM_EncKnnQuery)->Arg(512)->Unit(benchmark::kMillisecond);

// The scalar-era layout (one value per ciphertext): what every query paid
// before slot packing. ct_ops_per_query here vs BM_EncKnnQuery's is the
// headline reduction of the batched HE API (hundreds of ciphertext ops vs
// single digits at these sizes).
void BM_EncKnnQueryScalar(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/1, he::CkksPacking::kScalar,
                 /*query_group=*/1);
}
BENCHMARK(BM_EncKnnQueryScalar)->Arg(128)->Unit(benchmark::kMillisecond);

// Cross-query slot batching (FedKnnConfig::query_group = 0 auto-fits the
// slot count): at 128 rows the candidate vectors (127 values) underfill the
// 512 slots, so 4 queries share each packed aggregation round.
void BM_EncKnnQueryGrouped(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/8, he::CkksPacking::kPacked,
                 /*query_group=*/0);
}
BENCHMARK(BM_EncKnnQueryGrouped)->Arg(128)->Unit(benchmark::kMillisecond);

// Ungrouped control at the grouped benchmark's size, so the grouped speedup
// is an apples-to-apples wall-clock ratio in the same JSON artifact.
void BM_EncKnnQueryUngrouped(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/8, he::CkksPacking::kPacked,
                 /*query_group=*/1);
}
BENCHMARK(BM_EncKnnQueryUngrouped)->Arg(128)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Per-ISA pinned variants (scalar vs SIMD rows in one run)
// ---------------------------------------------------------------------------

// Wraps a bench body so the whole run executes with dispatch pinned to `isa`
// (restored afterwards). Only registered for ISAs the host supports, so every
// emitted row is a real measurement, never a silent fallback.
template <typename Body>
auto PinnedTo(simd::Isa isa, Body body) {
  return [isa, body](benchmark::State& state) {
    const simd::Isa prev = simd::ActiveIsa();
    simd::SetActiveIsa(isa);
    body(state);
    simd::SetActiveIsa(prev);
  };
}

void RegisterIsaPinnedVariants() {
  const simd::Isa widest = simd::DetectCpuIsa();
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (isa > widest) continue;
    const std::string tag = std::string("/isa:") + simd::IsaName(isa);
    benchmark::RegisterBenchmark(
        ("BM_NttForward/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { NttForwardBody(s, 4096); }));
    benchmark::RegisterBenchmark(
        ("BM_NttInverse/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { NttInverseBody(s, 4096); }));
    benchmark::RegisterBenchmark(
        ("BM_DotProduct/1024" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { DotProductBody(s, 1024); }));
    // 256-row (cache-resident) size: the 2000-row block is bandwidth-bound,
    // so the scalar-vs-SIMD ratio there measures the memory system, not the
    // kernels.
    benchmark::RegisterBenchmark(
        ("BM_BlockSquaredDistances/256" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) {
          BlockSquaredDistancesBody(s, 256);
        }));
    benchmark::RegisterBenchmark(
        ("BM_BlockSquaredDistances/2000" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) {
          BlockSquaredDistancesBody(s, 2000);
        }));
    benchmark::RegisterBenchmark(
        ("BM_Crc32/131072" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { Crc32Body(s, 131072); }))
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace vfps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  vfps::RegisterIsaPinnedVariants();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
