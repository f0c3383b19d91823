// Microbenchmarks for the top-k query algorithms over ranked lists of
// varying size, party count, and cross-party correlation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "topk/fagin.h"
#include "topk/naive.h"
#include "topk/shard_merge.h"
#include "topk/threshold.h"

namespace vfps::topk {
namespace {

std::vector<std::vector<double>> MakeScores(size_t parties, size_t items,
                                            double rho, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> shared(items);
  for (double& v : shared) v = rng.NextDouble();
  std::vector<std::vector<double>> scores(parties, std::vector<double>(items));
  for (auto& list : scores) {
    for (size_t i = 0; i < items; ++i) {
      list[i] = rho * shared[i] + (1.0 - rho) * rng.NextDouble();
    }
  }
  return scores;
}

// Build only allocates the identity permutation: sorted access sorts each
// list lazily, so BM_Fagin and its variants pay the sort in their first
// iteration and amortise it after. BM_RankThenFagin is the cost per shard.
void BM_RankedListBuild(benchmark::State& state) {
  auto scores = MakeScores(4, static_cast<size_t>(state.range(0)), 0.7, 1);
  for (auto _ : state) {
    auto lists = RankedListSet::Build(scores);
    benchmark::DoNotOptimize(lists);
  }
}
BENCHMARK(BM_RankedListBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Fagin(benchmark::State& state) {
  auto lists = RankedListSet::Build(
                   MakeScores(4, static_cast<size_t>(state.range(0)), 0.7, 2))
                   .ValueOrDie();
  for (auto _ : state) {
    auto result = FaginTopk(lists, 10, 64);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Fagin)->Arg(1000)->Arg(10000)->Arg(100000);

// The per-shard cost of the top-k oracle: rank P=8 parties' lists of
// 19,200 rows (the SUSY main cell) and run Fagin with mini-batches of 64 on
// them, the lists sorted only as deep as Fagin reads. The score copy the
// loop hands to Build (the oracle moves its vectors in) is timed too.
void BM_RankThenFagin(benchmark::State& state) {
  const auto scores = MakeScores(8, 19200, 0.7, 8);
  size_t depth = 0;
  for (auto _ : state) {
    auto lists = RankedListSet::Build(scores).ValueOrDie();
    auto result = FaginTopk(lists, 10, 64);
    depth = result->depth;
    benchmark::DoNotOptimize(result);
  }
  state.counters["depth"] = static_cast<double>(depth);
}
BENCHMARK(BM_RankThenFagin)->Unit(benchmark::kMillisecond);

void BM_Threshold(benchmark::State& state) {
  auto lists = RankedListSet::Build(
                   MakeScores(4, static_cast<size_t>(state.range(0)), 0.7, 3))
                   .ValueOrDie();
  for (auto _ : state) {
    auto result = ThresholdTopk(lists, 10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Threshold)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Naive(benchmark::State& state) {
  auto lists = RankedListSet::Build(
                   MakeScores(4, static_cast<size_t>(state.range(0)), 0.7, 4))
                   .ValueOrDie();
  for (auto _ : state) {
    auto result = NaiveTopk(lists, 10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Naive)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ShardMerge(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const size_t k = 10;
  Rng rng(7);
  std::vector<ShardTopk> inputs(shards);
  for (size_t s = 0; s < shards; ++s) {
    std::vector<std::pair<double, uint64_t>> entries(k);
    for (size_t i = 0; i < k; ++i) {
      entries[i] = {rng.NextDouble(), s * k + i};
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [v, id] : entries) {
      inputs[s].values.push_back(v);
      inputs[s].ids.push_back(id);
    }
  }
  for (auto _ : state) {
    auto copy = inputs;
    auto merged = HierarchicalTopkMerge(std::move(copy), k);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(shards * k));
}
BENCHMARK(BM_ShardMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FaginVaryingParties(benchmark::State& state) {
  auto lists = RankedListSet::Build(
                   MakeScores(static_cast<size_t>(state.range(0)), 20000, 0.7, 5))
                   .ValueOrDie();
  for (auto _ : state) {
    auto result = FaginTopk(lists, 10, 64);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FaginVaryingParties)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FaginVaryingCorrelation(benchmark::State& state) {
  const double rho = static_cast<double>(state.range(0)) / 10.0;
  auto lists = RankedListSet::Build(MakeScores(4, 20000, rho, 6)).ValueOrDie();
  for (auto _ : state) {
    auto result = FaginTopk(lists, 10, 64);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FaginVaryingCorrelation)->Arg(1)->Arg(5)->Arg(9);

}  // namespace
}  // namespace vfps::topk

BENCHMARK_MAIN();
