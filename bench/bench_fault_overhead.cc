// Measures what the fault-injection machinery costs when it is NOT being
// used — the property the zero-fault bit-identity contract rests on.
//
// Three layers, each compared pristine vs. with a zero-probability FaultSpec
// attached (injector consulted on every send, nothing ever fires):
//   1. Raw SimNetwork Send+Recv.
//   2. ReliableChannel Send+Recv (pass-through vs. seq+CRC framed ARQ).
//   3. A Fig.7-style VFPS-SM selection end to end.
// With faults disabled entirely (the default) the extra work is a single
// null-pointer check and the zero_spec:0 rows measure the exact code path
// every pre-existing experiment takes — that is the "negligible zero-fault
// overhead" contract. Attaching a spec, even an all-zero one, is an opt-in:
// it turns on the seq+CRC framed ARQ path: each message is framed into one
// buffer and hashed once on each side by the carry-less-multiply CRC-32
// kernel, plus a copy of the frame kept for retransmission. The zero_spec:1
// rows quantify what that opt-in costs; the 131,072-byte rows (two packed
// CKKS ciphertexts at the default one-prime parameters, 65,561 bytes each)
// show it at the scale the encrypted protocol sends.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"

namespace vfps {
namespace {

std::vector<uint8_t> MakePayload(size_t bytes) {
  std::vector<uint8_t> payload(bytes);
  for (size_t i = 0; i < bytes; ++i) payload[i] = static_cast<uint8_t>(i);
  return payload;
}

// arg0: payload bytes; arg1: 1 = attach a zero-probability fault plan.
void BM_RawSendRecv(benchmark::State& state) {
  net::SimNetwork net;
  SimClock clock;
  if (state.range(1) != 0) net.EnableFaults(net::FaultSpec{}, 7, &clock);
  const auto payload = MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    (void)net.Send(0, 1, payload);
    auto got = net.Recv(0, 1);
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RawSendRecv)
    ->ArgNames({"bytes", "zero_spec"})
    ->Args({64, 0})->Args({64, 1})
    ->Args({4096, 0})->Args({4096, 1});

// Same round trip through ReliableChannel: pass-through when faults are
// disabled, the full seq+CRC framed ARQ path when a zero spec is attached.
void BM_ChannelSendRecv(benchmark::State& state) {
  net::SimNetwork net;
  SimClock clock;
  if (state.range(1) != 0) net.EnableFaults(net::FaultSpec{}, 7, &clock);
  net::ReliableChannel chan(&net, &clock);
  const auto payload = MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    (void)chan.Send(0, 1, payload);
    auto got = chan.Recv(0, 1);
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelSendRecv)
    ->ArgNames({"bytes", "zero_spec"})
    ->Args({64, 0})->Args({64, 1})
    ->Args({4096, 0})->Args({4096, 1})
    ->Args({131072, 0})->Args({131072, 1});

// arg0: 1 = attach a zero-probability fault plan. Mirrors the Fig. 7 cell
// shape (4 participants, select 2, FAGIN oracle) at chaos-suite scale.
void BM_VfpsSmSelection(benchmark::State& state) {
  data::SyntheticConfig config;
  config.num_samples = 400;
  config.num_features = 12;
  config.num_informative = 6;
  config.num_redundant = 3;
  config.seed = 31;
  auto generated = data::GenerateClassification(config);
  auto split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
  data::StandardizeSplit(&split).Abort("standardize");
  auto partition =
      data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
  auto backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  if (state.range(0) != 0) network.EnableFaults(net::FaultSpec{}, 7, &clock);

  core::SelectionContext ctx;
  ctx.split = &split;
  ctx.partition = &partition;
  ctx.backend = backend.get();
  ctx.network = &network;
  ctx.cost = &cost;
  ctx.clock = &clock;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 16;
  ctx.seed = 11;
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  for (auto _ : state) {
    auto outcome = selector.Select(ctx, 2);
    if (!outcome.ok()) state.SkipWithError(outcome.status().ToString().c_str());
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_VfpsSmSelection)
    ->ArgNames({"zero_spec"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Incremental repair vs. clean-slate rerun after a single departure.
//
// arg0: 1 = repair (a warmed SelectionCache serves the three survivors'
// score vectors and sub-rankings, so only the Fagin merge over the new
// membership is redone); 0 = clean-slate (no cache: every survivor
// recomputes distances, re-sorts, and re-streams). The PR-7 acceptance gate
// is repair < 30% of clean-slate on this shape (FAGIN oracle, n = 2000
// rows, 4 participants, |Q| = 16).
void BM_SelectRepair(benchmark::State& state) {
  data::SyntheticConfig config;
  config.num_samples = 2000;
  config.num_features = 12;
  config.num_informative = 6;
  config.num_redundant = 3;
  config.seed = 31;
  auto generated = data::GenerateClassification(config);
  auto split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
  data::StandardizeSplit(&split).Abort("standardize");
  auto partition =
      data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
  auto backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  vfl::FederatedKnnOracle oracle(&split.train, &partition, backend.get(),
                                 &network, &cost, &clock);
  vfl::FedKnnConfig knn;
  knn.mode = vfl::KnnOracleMode::kFagin;
  knn.k = 6;
  knn.num_queries = 16;
  knn.seed = 11;

  vfl::SelectionCache cache;
  const bool repair = state.range(0) != 0;
  if (repair) {
    // Warm the cache with the pre-departure run, as the selector would have
    // before the leave was detected.
    oracle.set_cache(&cache);
    auto warm = oracle.Run(knn, nullptr);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }

  knn.quarantined = {3};  // participant 3 departed; 3 survivors remain
  for (auto _ : state) {
    auto rerun = oracle.Run(knn, nullptr);
    if (!rerun.ok()) state.SkipWithError(rerun.status().ToString().c_str());
    benchmark::DoNotOptimize(rerun);
  }
}
BENCHMARK(BM_SelectRepair)
    ->ArgNames({"repair"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vfps

BENCHMARK_MAIN();
