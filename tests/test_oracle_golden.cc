// Golden-output fixture of the federated KNN oracle.
//
// Every cell of the grid
//
//   {BASE, Fagin, TA} x shards {1, 4} x query group {1, auto (BASE only)}
//     x threads {1, 4} x {no faults, leave=3@2,drop=0.02 with the repair cache}
//
// runs a full VfpsSmSelector selection on the 350-row synthetic deployment of
// test_sharded_knn (plain backend; CKKS too for the one-shard Fagin and
// BASE-auto cells, the shapes the benchmark runs) and is reduced to six
// digests:
//
//   hoods     - query rows, neighbors and the bit patterns of per_party_dt;
//   cand      - FedKnnStats::candidates_encrypted;
//   depth     - FedKnnStats::fagin_depth;
//   stats     - traffic messages/bytes, he_ops, reused_contributions;
//   clock     - the bit patterns of the per-CostCategory SimClock totals;
//   counters  - the metrics registry's CounterEntries().
//
// The expected values were recorded before the oracle's query paths were
// merged into one engine; a refactor of the oracle must keep them, and an
// intended change must update the row and say why in CHANGES.md. Both thread
// counts must match the same row, so the fixture also pins thread-count
// invariance. A mismatch prints the cell's actual row in table syntax.
//
// Intended changes since the recording, all in the shards=4 rows (hoods,
// cand and depth unchanged everywhere):
//   - clock/counters: the d_T exchange reads the partials kept from the shard
//     pass instead of recomputing them (no DistanceSeconds(k) charge per
//     query), and the top-k modes keep the query's own row as a +inf item of
//     its shard (charged as one more row, like the one-shard plan);
//   - faulted stats/clock/counters: sharded runs now use the repair cache, so
//     the repair run reuses the survivors' per-shard contributions.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/vfps_sm.h"
#include "data/synthetic.h"
#include "he/ckks.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

using vfl::KnnOracleMode;

constexpr char kFaultSpec[] = "leave=3@2,drop=0.02";

struct Cell {
  KnnOracleMode mode;
  size_t shards;
  size_t group;  // FedKnnConfig::query_group (0 = auto)
  bool faults;
  bool ckks;
};

struct Digest {
  uint64_t hoods = 0;
  uint64_t cand = 0;
  uint64_t depth = 0;
  uint64_t stats = 0;
  uint64_t clock = 0;
  uint64_t counters = 0;

  bool operator==(const Digest& o) const {
    return hoods == o.hoods && cand == o.cand && depth == o.depth &&
           stats == o.stats && clock == o.clock && counters == o.counters;
  }
};

struct Golden {
  Cell cell;
  Digest digest;
};

class Fnv {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct CellRun {
  Status status = Status::OK();
  std::vector<vfl::QueryNeighborhood> hoods;
  Digest digest;
};

CellRun RunCell(const Cell& cell, size_t threads) {
  data::SyntheticConfig config;
  config.num_samples = 350;
  config.num_features = 12;
  config.num_informative = 6;
  config.num_redundant = 3;
  config.seed = 31;
  data::DataSplit split;
  split.train = data::GenerateClassification(config)->data;
  const data::VerticalPartition partition =
      data::RandomVerticalPartition(config.num_features, 4, 9)
          .MoveValueUnsafe();
  std::unique_ptr<he::HeBackend> backend =
      cell.ckks ? he::CreateCkksBackend(he::CkksParams{}, 123).MoveValueUnsafe()
                : he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  obs::MetricsRegistry obs;
  network.set_metrics(&obs);
  if (cell.faults) {
    network.EnableFaults(*net::ParseFaultSpec(kFaultSpec), 5, &clock);
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  core::SelectionCheckpoint checkpoint;
  core::SelectionContext ctx;
  ctx.split = &split;
  ctx.partition = &partition;
  ctx.backend = backend.get();
  ctx.network = &network;
  ctx.cost = &cost;
  ctx.clock = &clock;
  ctx.pool = pool.get();
  ctx.obs = &obs;
  ctx.checkpoint = &checkpoint;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 12;
  ctx.knn.shards = cell.shards;
  ctx.knn.query_group = cell.group;
  ctx.seed = 77;
  core::VfpsSmSelector selector(cell.mode);
  auto outcome = selector.Select(ctx, 2);

  CellRun run;
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.hoods = checkpoint.neighborhoods;

  Fnv hoods;
  for (const vfl::QueryNeighborhood& hood : run.hoods) {
    hoods.U64(hood.query_row);
    hoods.U64(hood.neighbors.size());
    for (uint64_t id : hood.neighbors) hoods.U64(id);
    hoods.U64(hood.per_party_dt.size());
    for (double dt : hood.per_party_dt) hoods.F64(dt);
  }
  const vfl::FedKnnStats& s = outcome->knn_stats;
  Fnv stats;
  stats.U64(s.traffic.messages);
  stats.U64(s.traffic.bytes);
  stats.U64(s.he_ops.encrypt_ops);
  stats.U64(s.he_ops.decrypt_ops);
  stats.U64(s.he_ops.add_ops);
  stats.U64(s.he_ops.values_encrypted);
  stats.U64(s.he_ops.values_decrypted);
  stats.U64(s.he_ops.values_added);
  stats.U64(s.reused_contributions);
  Fnv clock_digest;
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    clock_digest.F64(clock.TotalFor(static_cast<CostCategory>(c)));
  }
  Fnv counters;
  for (const auto& [name, value] : obs.CounterEntries()) {
    counters.Str(name);
    counters.U64(value);
  }
  run.digest = Digest{hoods.value(),        s.candidates_encrypted,
                      s.fagin_depth,        stats.value(),
                      clock_digest.value(), counters.value()};
  return run;
}

std::string CellName(const Cell& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s shards=%zu group=%zu faults=%d %s",
                vfl::KnnOracleModeName(c.mode), c.shards, c.group,
                c.faults ? 1 : 0, c.ckks ? "ckks" : "plain");
  return buf;
}

std::string TableRow(const Cell& c, const Digest& d) {
  static const char* const kModes[] = {"kBase", "kFagin", "kThreshold"};
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    {{KnnOracleMode::%s, %zu, %zu, %s, %s},\n"
                "     {0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64
                ", 0x%016" PRIx64 "ULL,\n"
                "      0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},",
                kModes[static_cast<int>(c.mode)], c.shards, c.group,
                c.faults ? "true" : "false", c.ckks ? "true" : "false",
                d.hoods, d.cand, d.depth, d.stats, d.clock, d.counters);
  return buf;
}

// clang-format off
const std::vector<Golden> kGolden = {
    {{KnnOracleMode::kBase, 1, 1, false, false},
     {0xabe81733700b89b4ULL, 4188, 0, 0x5bbf49475c772644ULL,
      0x1c26565922451beaULL, 0x5d595c86f1a8d5d3ULL}},
    {{KnnOracleMode::kBase, 1, 0, false, false},
     {0xabe81733700b89b4ULL, 4188, 0, 0xfa7a2d4dd6cc23f1ULL,
      0xd4b14a124c649523ULL, 0xfee8d45b93b7d1b4ULL}},
    {{KnnOracleMode::kBase, 4, 1, false, false},
     {0xabe81733700b89b4ULL, 4188, 0, 0xbb80a5b9bdce7746ULL,
      0x04ae15e61f79a0a6ULL, 0x92baa139fe48524dULL}},
    {{KnnOracleMode::kFagin, 1, 1, false, false},
     {0xabe81733700b89b4ULL, 2608, 1280, 0xd86d93946436b424ULL,
      0x2acb4e9ef4e9f7d0ULL, 0x7df073793d582179ULL}},
    {{KnnOracleMode::kFagin, 4, 1, false, false},
     {0xabe81733700b89b4ULL, 3996, 3072, 0xe60ec10f905b2b41ULL,
      0x205df0f8045f0d3eULL, 0xc6f4cdf5ec3bc590ULL}},
    {{KnnOracleMode::kThreshold, 1, 1, false, false},
     {0xabe81733700b89b4ULL, 1327, 461, 0xd9c4388bedaf99a5ULL,
      0x78ad5e25018b93b0ULL, 0xe31609527df32ca9ULL}},
    {{KnnOracleMode::kThreshold, 4, 1, false, false},
     {0xabe81733700b89b4ULL, 1966, 798, 0x7235038ffc674a0cULL,
      0x06cf189bd92eac53ULL, 0x0930467b978852e7ULL}},
    {{KnnOracleMode::kFagin, 1, 1, false, true},
     {0xabe81733700b89b4ULL, 2608, 1280, 0x9c6f55420e33a282ULL,
      0x2acb4e9ef4e9f7d0ULL, 0x3e3c1192606d6112ULL}},
    {{KnnOracleMode::kBase, 1, 0, false, true},
     {0xabe81733700b89b4ULL, 4188, 0, 0xe46cf23716e9aff1ULL,
      0xc4a3c2d5faba082aULL, 0x467191d70b65690aULL}},
    {{KnnOracleMode::kBase, 1, 1, true, false},
     {0xabe81733700b89b4ULL, 4188, 0, 0xa6c4fcc55d0b1d4aULL,
      0x0f37b6aff573cbccULL, 0xa2a7f2cddaf70d44ULL}},
    {{KnnOracleMode::kBase, 1, 0, true, false},
     {0xb3d19637eeefc9cfULL, 4188, 0, 0xdf64673a6faaae58ULL,
      0xa9202de32a8640e2ULL, 0x2f631a0949a774e1ULL}},
    {{KnnOracleMode::kBase, 4, 1, true, false},
     {0xb3d19637eeefc9cfULL, 4188, 0, 0xce5257e827cf361cULL,
      0x514275849ffdc150ULL, 0x678d104cc25c3f21ULL}},
    {{KnnOracleMode::kFagin, 1, 1, true, false},
     {0xb3d19637eeefc9cfULL, 1833, 896, 0x414c9aa0fe941b85ULL,
      0x671c0e3d0c5b4e2bULL, 0x3ad30e25be97ddd2ULL}},
    {{KnnOracleMode::kFagin, 4, 1, true, false},
     {0xb3d19637eeefc9cfULL, 3887, 3072, 0xa0ba9da6dda03cb2ULL,
      0x7866866154fd6a94ULL, 0xbcc12ff73b0934dbULL}},
    {{KnnOracleMode::kThreshold, 1, 1, true, false},
     {0xb3d19637eeefc9cfULL, 882, 352, 0x138c0e05f26273ccULL,
      0x5fb198adbcb99f11ULL, 0x2699162819c7a8caULL}},
    {{KnnOracleMode::kThreshold, 4, 1, true, false},
     {0xb3d19637eeefc9cfULL, 1565, 723, 0x3ed989a9c59b1006ULL,
      0x3364cfdf11582febULL, 0x1f12b933bf2cc0e9ULL}},
    {{KnnOracleMode::kFagin, 1, 1, true, true},
     {0xb3d19637eeefc9cfULL, 1833, 896, 0x72757f0536c35e15ULL,
      0x671c0e3d0c5b4e2bULL, 0x7794183ec58b69fdULL}},
    {{KnnOracleMode::kBase, 1, 0, true, true},
     {0xb3d19637eeefc9cfULL, 4188, 0, 0xf0167072da79bdacULL,
      0xf772085fbf148021ULL, 0x7598a34997bfc1ccULL}},
};
// clang-format on

void ExpectSameHoods(const std::vector<vfl::QueryNeighborhood>& a,
                     const std::vector<vfl::QueryNeighborhood>& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].query_row, b[q].query_row) << label << " query " << q;
    EXPECT_EQ(a[q].neighbors, b[q].neighbors) << label << " query " << q;
    EXPECT_EQ(a[q].per_party_dt, b[q].per_party_dt) << label << " query " << q;
  }
}

TEST(OracleGoldenTest, EveryCellMatchesTheRecordedDigests) {
  std::vector<Cell> grid;
  for (bool faults : {false, true}) {
    for (KnnOracleMode mode : {KnnOracleMode::kBase, KnnOracleMode::kFagin,
                               KnnOracleMode::kThreshold}) {
      for (size_t shards : {size_t{1}, size_t{4}}) {
        grid.push_back({mode, shards, 1, faults, false});
        if (mode == KnnOracleMode::kBase) {
          grid.push_back({mode, shards, 0, faults, false});
        }
      }
    }
    grid.push_back({KnnOracleMode::kFagin, 1, 1, faults, true});
    grid.push_back({KnnOracleMode::kBase, 1, 0, faults, true});
  }

  std::string missing;
  for (const Cell& cell : grid) {
    const std::string name = CellName(cell);
    const Golden* golden = nullptr;
    for (const Golden& g : kGolden) {
      if (g.cell.mode == cell.mode && g.cell.shards == cell.shards &&
          g.cell.group == cell.group && g.cell.faults == cell.faults &&
          g.cell.ckks == cell.ckks) {
        golden = &g;
      }
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const CellRun run = RunCell(cell, threads);
      const std::string label =
          name + " threads=" + std::to_string(threads);
      if (cell.group == 0 && cell.shards > 1) {
        // Cross-query grouping of a sharded run: not a recorded cell (it was
        // rejected when the fixture was recorded), but it must find exactly
        // the neighborhoods of the ungrouped sharded run.
        ASSERT_TRUE(run.status.ok()) << label << ": " << run.status.ToString();
        Cell ungrouped = cell;
        ungrouped.group = 1;
        const CellRun reference = RunCell(ungrouped, threads);
        ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
        ExpectSameHoods(run.hoods, reference.hoods, label);
        EXPECT_EQ(run.digest.cand, reference.digest.cand) << label;
        continue;
      }
      ASSERT_TRUE(run.status.ok()) << label << ": " << run.status.ToString();
      if (golden == nullptr) {
        if (threads == 1) missing += TableRow(cell, run.digest) + "\n";
        continue;
      }
      EXPECT_TRUE(run.digest == golden->digest)
          << label << " drifted from the fixture; actual row:\n"
          << TableRow(cell, run.digest);
    }
  }
  EXPECT_TRUE(missing.empty()) << "cells without a recorded row:\n"
                               << missing;
}

}  // namespace
}  // namespace vfps
