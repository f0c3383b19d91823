#include "vfl/fed_knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "data/scaler.h"
#include "data/synthetic.h"
#include "ml/knn.h"
#include "vfl/pseudo_id.h"

namespace vfps::vfl {
namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset test;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Fixture Make(size_t rows, size_t features, size_t parties,
                      bool ckks = false) {
    Fixture f;
    data::SyntheticConfig config;
    config.num_samples = rows + rows / 4;
    config.num_features = features;
    config.num_informative = features / 2 + 1;
    config.num_redundant = features / 4;
    config.seed = rows + parties;
    auto generated = data::GenerateClassification(config);
    auto split = data::SplitDataset(generated->data, 0.8, 0.0, 5);
    f.train = split->train;
    f.test = split->test;
    f.partition = *data::RandomVerticalPartition(features, parties, 9);
    if (ckks) {
      he::CkksParams params;
      params.poly_degree = 1024;
      f.backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
    } else {
      f.backend = he::CreatePlainBackend();
    }
    return f;
  }

  FederatedKnnOracle Oracle() {
    return FederatedKnnOracle(&train, &partition, backend.get(), &network,
                              &cost, &clock);
  }
};

TEST(PseudoIdTest, BijectionAndDeterminism) {
  auto map = PseudoIdMap::Create(100, 7);
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t pid = map.ToPseudo(i);
    EXPECT_LT(pid, 100u);
    EXPECT_EQ(map.ToOriginal(pid), i);
    seen.insert(pid);
  }
  EXPECT_EQ(seen.size(), 100u);
  auto map2 = PseudoIdMap::Create(100, 7);
  EXPECT_EQ(map.ToPseudo(42), map2.ToPseudo(42));
  auto map3 = PseudoIdMap::Create(100, 8);
  // A different consortium seed gives a different shuffle.
  size_t same = 0;
  for (uint64_t i = 0; i < 100; ++i) same += (map.ToPseudo(i) == map3.ToPseudo(i));
  EXPECT_LT(same, 15u);
}

TEST(PseudoIdTest, ExhaustiveRoundTrip) {
  // Every id of every size maps to a distinct in-range pseudo id and back,
  // in both directions.
  for (size_t count : {1u, 2u, 10u, 1000u}) {
    for (uint64_t seed : {1u, 2u}) {
      auto map = PseudoIdMap::Create(count, seed);
      ASSERT_EQ(map.count(), count);
      std::vector<bool> hit(count, false);
      for (uint64_t id = 0; id < count; ++id) {
        const uint64_t pid = map.ToPseudo(id);
        ASSERT_LT(pid, count);
        EXPECT_FALSE(hit[pid]) << "count=" << count << " pid=" << pid;
        hit[pid] = true;
        EXPECT_EQ(map.ToOriginal(pid), id);
        EXPECT_EQ(map.ToPseudo(map.ToOriginal(id)), id);
      }
    }
  }
}

// The repair cache keeps each party's sub-ranking only as deep as the run
// sorted it. A repair whose Fagin pass reads deeper (a join makes phase 1
// need more rows) resumes those rankings and must find what a cold run does.
TEST(FedKnnTest, RepairResumesCachedRankingsPastTheirSortedPrefix) {
  Fixture f = Fixture::Make(2000, 12, 4);  // lists longer than a first chunk
  FedKnnConfig config;
  config.k = 50;
  config.num_queries = 4;
  config.absent = {3};
  SelectionCache cache;
  auto oracle = f.Oracle();
  oracle.set_cache(&cache);
  ASSERT_TRUE(oracle.Run(config, nullptr).ok());

  // The cache keeps each party's sorted prefix: the (score, id) order of its
  // values, at least as deep as the party streamed.
  const auto expect_sorted_prefix = [](const PartyUnitState& st, size_t u) {
    const auto& ranking = st.ranking;
    ASSERT_GE(ranking.size(), st.streamed_depth);
    std::vector<uint32_t> want(st.values.size());
    std::iota(want.begin(), want.end(), uint32_t{0});
    std::sort(want.begin(), want.end(), [&st](uint32_t a, uint32_t b) {
      if (st.values[a] != st.values[b]) return st.values[a] < st.values[b];
      return a < b;
    });
    for (size_t r = 0; r < ranking.size(); ++r) {
      ASSERT_EQ(ranking[r], want[r]) << "unit " << u << " rank " << r;
    }
  };
  std::map<std::tuple<size_t, size_t, size_t>, size_t> cached_prefix;
  for (size_t u = 0; u < cache.num_units(); ++u) {
    for (const auto& [key, st] : cache.unit(u)->entries) {
      expect_sorted_prefix(st, u);
      ASSERT_LT(st.ranking.size(), st.values.size());  // the sort stayed lazy
      cached_prefix[{u, key.first, key.second}] = st.ranking.size();
    }
  }

  // Participant 3 joins: the survivors' rankings come from the cache.
  config.absent.clear();
  FedKnnStats stats;
  auto repaired = oracle.Run(config, &stats);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_GT(stats.reused_contributions, 0u);
  size_t read_deeper = 0;
  for (const auto& [where, prefix] : cached_prefix) {
    const auto& [u, shard, party] = where;
    const PartyUnitState& st = cache.unit(u)->entries.at({shard, party});
    if (st.streamed_depth > prefix) ++read_deeper;
    // The repair's deeper sort of a cached party is kept, so the next repair
    // resumes from it instead of sorting the same rows again.
    expect_sorted_prefix(st, u);
  }
  EXPECT_GT(read_deeper, 0u);

  auto cold = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(repaired->size(), cold->size());
  for (size_t q = 0; q < cold->size(); ++q) {
    EXPECT_EQ((*repaired)[q].neighbors, (*cold)[q].neighbors) << q;
    EXPECT_EQ((*repaired)[q].per_party_dt, (*cold)[q].per_party_dt) << q;
  }
}

TEST(FedKnnTest, BaseAndFaginAgreeOnNeighbors) {
  // With the plain backend (exact arithmetic), both oracle modes must find
  // identical neighbor sets and identical d_T^p vectors.
  Fixture f = Fixture::Make(300, 8, 3);
  FedKnnConfig config;
  config.k = 7;
  config.num_queries = 12;
  config.seed = 77;

  config.mode = KnnOracleMode::kBase;
  auto base = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  config.mode = KnnOracleMode::kFagin;
  auto fagin = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(fagin.ok()) << fagin.status().ToString();

  ASSERT_EQ(base->size(), fagin->size());
  for (size_t q = 0; q < base->size(); ++q) {
    EXPECT_EQ((*base)[q].query_row, (*fagin)[q].query_row);
    const std::set<uint64_t> base_neighbors((*base)[q].neighbors.begin(),
                                            (*base)[q].neighbors.end());
    const std::set<uint64_t> fagin_neighbors((*fagin)[q].neighbors.begin(),
                                             (*fagin)[q].neighbors.end());
    EXPECT_EQ(base_neighbors, fagin_neighbors) << "query " << q;
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_NEAR((*base)[q].per_party_dt[p], (*fagin)[q].per_party_dt[p], 1e-9);
    }
  }
}

TEST(FedKnnTest, ThresholdModeAgreesWithBase) {
  // The TA-based oracle must find the same neighbor sets as the exhaustive
  // protocol, while evaluating (and encrypting) fewer candidates.
  Fixture f = Fixture::Make(400, 10, 3);
  FedKnnConfig config;
  config.k = 7;
  config.num_queries = 10;
  config.seed = 5;

  config.mode = KnnOracleMode::kBase;
  FedKnnStats base_stats;
  auto base = f.Oracle().Run(config, &base_stats);
  ASSERT_TRUE(base.ok());

  config.mode = KnnOracleMode::kThreshold;
  FedKnnStats ta_stats;
  auto ta = f.Oracle().Run(config, &ta_stats);
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();

  ASSERT_EQ(base->size(), ta->size());
  for (size_t q = 0; q < base->size(); ++q) {
    const std::set<uint64_t> expected((*base)[q].neighbors.begin(),
                                      (*base)[q].neighbors.end());
    const std::set<uint64_t> got((*ta)[q].neighbors.begin(),
                                 (*ta)[q].neighbors.end());
    EXPECT_EQ(expected, got) << "query " << q;
  }
  EXPECT_LT(ta_stats.candidates_encrypted, base_stats.candidates_encrypted);
  EXPECT_EQ(f.network.PendingCount(), 0u);
}

TEST(FedKnnTest, ThresholdUsuallyEvaluatesFewerCandidatesThanFagin) {
  Fixture f = Fixture::Make(1500, 12, 4);
  FedKnnConfig config;
  config.k = 10;
  config.num_queries = 6;
  FedKnnStats fagin_stats, ta_stats;
  config.mode = KnnOracleMode::kFagin;
  ASSERT_TRUE(f.Oracle().Run(config, &fagin_stats).ok());
  config.mode = KnnOracleMode::kThreshold;
  ASSERT_TRUE(f.Oracle().Run(config, &ta_stats).ok());
  // TA evaluates at most as many candidates as FA sees (classic result).
  EXPECT_LE(ta_stats.candidates_encrypted, fagin_stats.candidates_encrypted);
}

TEST(FedKnnTest, MatchesCentralizedKnnNeighbors) {
  // The federated oracle over ALL participants must agree with a centralized
  // KNN on the joint features (excluding the query itself).
  Fixture f = Fixture::Make(200, 6, 2);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 8;
  config.mode = KnnOracleMode::kBase;
  auto result = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(result.ok());

  ml::KnnClassifier reference(config.k + 1);  // +1: centralized includes self
  ASSERT_TRUE(reference.Fit(f.train, {}).ok());
  for (const auto& hood : *result) {
    auto neighbors = reference.Neighbors(f.train.Row(hood.query_row));
    std::set<uint64_t> expected;
    for (size_t idx : neighbors) {
      if (idx != hood.query_row) expected.insert(idx);
    }
    // Drop the extra farthest element if self was not in the list.
    std::set<uint64_t> got(hood.neighbors.begin(), hood.neighbors.end());
    size_t overlap = 0;
    for (uint64_t id : got) overlap += expected.count(id);
    EXPECT_GE(overlap, config.k - 1) << "query " << hood.query_row;
  }
}

TEST(FedKnnTest, FaginEncryptsFarFewerCandidates) {
  Fixture f = Fixture::Make(2000, 12, 4);
  FedKnnConfig config;
  config.k = 10;
  config.num_queries = 6;

  FedKnnStats base_stats, fagin_stats;
  config.mode = KnnOracleMode::kBase;
  ASSERT_TRUE(f.Oracle().Run(config, &base_stats).ok());
  config.mode = KnnOracleMode::kFagin;
  ASSERT_TRUE(f.Oracle().Run(config, &fagin_stats).ok());

  EXPECT_EQ(base_stats.queries, 6u);
  EXPECT_EQ(fagin_stats.queries, 6u);
  // BASE encrypts N-1 per query; Fagin's candidate set must be well under N.
  EXPECT_EQ(base_stats.AvgCandidatesPerQuery(),
            static_cast<double>(f.train.num_samples() - 1));
  EXPECT_LT(fagin_stats.AvgCandidatesPerQuery(),
            0.8 * static_cast<double>(f.train.num_samples()));
  EXPECT_GT(fagin_stats.fagin_depth, 0u);
}

TEST(FedKnnTest, TrafficAndHeOpsAreMetered) {
  Fixture f = Fixture::Make(300, 8, 3);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 4;
  config.mode = KnnOracleMode::kBase;
  FedKnnStats stats;
  ASSERT_TRUE(f.Oracle().Run(config, &stats).ok());
  EXPECT_GT(stats.traffic.messages, 0u);
  EXPECT_GT(stats.traffic.bytes, 0u);
  EXPECT_GT(stats.he_ops.encrypt_ops, 0u);
  EXPECT_GT(stats.he_ops.decrypt_ops, 0u);
  EXPECT_GT(stats.he_ops.add_ops, 0u);
  // No message may be left undelivered (protocol completeness).
  EXPECT_EQ(f.network.PendingCount(), 0u);
  // The clock advanced in every relevant category.
  EXPECT_GT(f.clock.TotalFor(CostCategory::kCompute), 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kEncrypt), 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kDecrypt), 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kNetwork), 0.0);
}

TEST(FedKnnTest, RealCkksBackendAgreesWithPlain) {
  Fixture plain = Fixture::Make(150, 6, 2, /*ckks=*/false);
  Fixture ckks = Fixture::Make(150, 6, 2, /*ckks=*/true);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 5;
  config.mode = KnnOracleMode::kFagin;
  auto a = plain.Oracle().Run(config, nullptr);
  auto b = ckks.Oracle().Run(config, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t q = 0; q < a->size(); ++q) {
    // CKKS noise is ~1e-6; distances differ by far more except for exact
    // ties, so neighbor sets should match (allow one tie-flip).
    std::set<uint64_t> sa((*a)[q].neighbors.begin(), (*a)[q].neighbors.end());
    std::set<uint64_t> sb((*b)[q].neighbors.begin(), (*b)[q].neighbors.end());
    size_t overlap = 0;
    for (uint64_t id : sa) overlap += sb.count(id);
    EXPECT_GE(overlap, config.k - 1) << "query " << q;
  }
}

// One row far outside the standardized range: its partial distances are
// past what a two-party CKKS sum can hold (q/2 over two addends), so the
// oracle stops with the backend's OutOfRange instead of ranking sums that
// wrapped modulo q. The plain backend has no such bound.
TEST(FedKnnTest, UnsummableDistancesAreOutOfRange) {
  Fixture ckks = Fixture::Make(150, 6, 2, /*ckks=*/true);
  Fixture plain = Fixture::Make(150, 6, 2, /*ckks=*/false);
  for (Fixture* f : {&ckks, &plain}) {
    double* row = f->train.MutableRow(7);
    for (size_t j = 0; j < 6; ++j) row[j] = 250.0;
  }
  // 6 * 250^2 spread over two parties: at least 3 * 250^2 on one of them.
  ASSERT_LT(ckks.backend->SummableMagnitude(2), 3 * 250.0 * 250.0 * 0.9);
  // BASE encrypts every row's distance, the outlier's included.
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 5;
  config.mode = KnnOracleMode::kBase;
  auto run = ckks.Oracle().Run(config, nullptr);
  EXPECT_TRUE(run.status().IsOutOfRange()) << run.status().ToString();
  EXPECT_NE(run.status().message().find("2-party"), std::string::npos);
  EXPECT_TRUE(plain.Oracle().Run(config, nullptr).ok());
}

TEST(FedKnnTest, ClassifyAccuracyMatchesCentralKnn) {
  Fixture f = Fixture::Make(400, 8, 2);
  std::vector<size_t> all = {0, 1};
  auto fed = f.Oracle().ClassifyAccuracy(f.test, all, 5, false);
  ASSERT_TRUE(fed.ok());
  ml::KnnClassifier central(5);
  ASSERT_TRUE(central.Fit(f.train, {}).ok());
  auto central_acc = central.Score(f.test);
  ASSERT_TRUE(central_acc.ok());
  EXPECT_NEAR(*fed, *central_acc, 1e-9);
}

TEST(FedKnnTest, ClassifySubsetUsesOnlySelectedFeatures) {
  Fixture f = Fixture::Make(400, 8, 4);
  // Accuracy with one participant vs all should differ (sanity that the
  // subset restriction is effective).
  auto one = f.Oracle().ClassifyAccuracy(f.test, {3}, 5, false);
  auto all = f.Oracle().ClassifyAccuracy(f.test, {0, 1, 2, 3}, 5, false);
  ASSERT_TRUE(one.ok() && all.ok());
  EXPECT_GE(*all, *one - 0.05);
}

TEST(FedKnnTest, ChargeCostsAdvancesClock) {
  Fixture f = Fixture::Make(200, 6, 2);
  const double before = f.clock.Total();
  ASSERT_TRUE(f.Oracle().ClassifyAccuracy(f.test, {0, 1}, 5, true).ok());
  EXPECT_GT(f.clock.Total(), before);
}

TEST(FedKnnTest, InvalidConfigsRejected) {
  Fixture f = Fixture::Make(100, 6, 2);
  auto oracle = f.Oracle();
  FedKnnConfig config;
  config.k = 0;
  EXPECT_FALSE(oracle.Run(config, nullptr).ok());
  config = FedKnnConfig{};
  config.num_queries = 0;
  EXPECT_FALSE(oracle.Run(config, nullptr).ok());
  EXPECT_FALSE(oracle.ClassifyAccuracy(f.test, {}, 5, false).ok());
  EXPECT_FALSE(oracle.ClassifyAccuracy(f.test, {9}, 5, false).ok());
}

TEST(FedKnnTest, LabelsNeverLeaveTheLeader) {
  // Feature/label security: scan every byte that crossed the wire for the
  // training labels laid out as a contiguous plaintext block. This is a
  // structural smoke check (labels are never serialized by the protocol).
  Fixture f = Fixture::Make(200, 6, 3);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 3;
  config.mode = KnnOracleMode::kFagin;
  ASSERT_TRUE(f.Oracle().Run(config, nullptr).ok());
  // The protocol under test never calls Dataset::labels() serialization;
  // assert the traffic exists but the label vector memory was not copied in.
  EXPECT_GT(f.network.total().bytes, 0u);
  SUCCEED();
}

}  // namespace
}  // namespace vfps::vfl
