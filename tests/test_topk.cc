#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/random.h"
#include "topk/fagin.h"
#include "topk/naive.h"
#include "topk/threshold.h"

namespace vfps::topk {
namespace {

std::vector<std::vector<double>> RandomScores(size_t parties, size_t items,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> scores(parties, std::vector<double>(items));
  for (auto& list : scores) {
    for (double& v : list) v = rng.Uniform(0.0, 100.0);
  }
  return scores;
}

std::set<uint64_t> AsSet(const std::vector<uint64_t>& ids) {
  return {ids.begin(), ids.end()};
}

TEST(RankedListSetTest, BuildSortsAscending) {
  auto set = RankedListSet::Build({{3.0, 1.0, 2.0}});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->IdAtRank(0, 0), 1u);
  EXPECT_EQ(set->IdAtRank(0, 1), 2u);
  EXPECT_EQ(set->IdAtRank(0, 2), 0u);
  EXPECT_DOUBLE_EQ(set->Score(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(set->AggregateScore(1), 1.0);
}

TEST(RankedListSetTest, TiesBrokenById) {
  auto set = RankedListSet::Build({{5.0, 5.0, 1.0}});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->IdAtRank(0, 0), 2u);
  EXPECT_EQ(set->IdAtRank(0, 1), 0u);
  EXPECT_EQ(set->IdAtRank(0, 2), 1u);
}

TEST(RankedListSetTest, RejectsBadInput) {
  EXPECT_FALSE(RankedListSet::Build({}).ok());
  EXPECT_FALSE(RankedListSet::Build({{}}).ok());
  EXPECT_FALSE(RankedListSet::Build({{1.0, 2.0}, {1.0}}).ok());
}

// The ranking a full sort gives: ascending score, ties broken by id.
std::vector<uint32_t> FullSort(const std::vector<double>& scores) {
  std::vector<uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&scores](uint32_t a, uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  });
  return order;
}

// Score vectors that stress the (score, id) order: heavy ties, +inf rows,
// mixed 0.0/-0.0, a single item, and sizes below and above the first chunk.
std::vector<std::vector<double>> AwkwardScores() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> out;
  out.push_back({7.0});
  out.push_back({0.0, -0.0, 0.0, -0.0, inf, -0.0});
  Rng rng(17);
  for (size_t n : {100u, 255u, 256u, 257u, 1000u, 5000u}) {
    std::vector<double> ties(n), mixed(n);
    for (size_t i = 0; i < n; ++i) {
      ties[i] = static_cast<double>(rng.NextBounded(4));  // heavy ties
      const uint64_t draw = rng.NextBounded(10);
      mixed[i] = draw == 0   ? inf
                 : draw == 1 ? 0.0
                 : draw == 2 ? -0.0
                             : rng.Uniform(-1.0, 1.0);
    }
    out.push_back(ties);
    out.push_back(mixed);
  }
  return out;
}

TEST(RankedListSetTest, LazyIdAtRankEqualsFullSortInAnyVisitOrder) {
  Rng rng(23);
  for (const std::vector<double>& scores : AwkwardScores()) {
    const std::vector<uint32_t> want = FullSort(scores);
    const size_t n = scores.size();
    // Deepest rank first: one extension sorts everything.
    auto deepest = RankedListSet::Build({scores});
    ASSERT_TRUE(deepest.ok());
    EXPECT_EQ(deepest->IdAtRank(0, n - 1), want[n - 1]) << "n=" << n;
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(deepest->IdAtRank(0, r), want[r]) << "n=" << n << " r=" << r;
    }
    // Random jumps, then every rank in order.
    auto jumps = RankedListSet::Build({scores});
    ASSERT_TRUE(jumps.ok());
    for (size_t i = 0; i < 50; ++i) {
      const size_t r = rng.NextBounded(n);
      ASSERT_EQ(jumps->IdAtRank(0, r), want[r]) << "n=" << n << " r=" << r;
    }
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(jumps->IdAtRank(0, r), want[r]) << "n=" << n << " r=" << r;
    }
    // In order from a cold list.
    auto in_order = RankedListSet::Build({scores});
    ASSERT_TRUE(in_order.ok());
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(in_order->IdAtRank(0, r), want[r]) << "n=" << n << " r=" << r;
    }
    EXPECT_EQ(in_order->SortedPrefix(0), want);
    EXPECT_EQ(in_order->sorted(0), n);
  }
}

TEST(RankedListSetTest, SortsOnlyAsDeepAsRead) {
  std::vector<double> scores(10000);
  Rng rng(29);
  for (double& v : scores) v = rng.NextDouble();
  auto set = RankedListSet::Build({scores});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->sorted(0), 0u);
  set->IdAtRank(0, 0);
  EXPECT_EQ(set->sorted(0), 10000u / 16);  // the first chunk
  set->IdAtRank(0, 10000 / 16);
  EXPECT_EQ(set->sorted(0), 2 * (10000u / 16));  // doubled
  set->IdAtRank(0, 9999);
  EXPECT_EQ(set->sorted(0), 10000u);
}

TEST(RankedListSetTest, ExportedRankingResumesToTheFullSort) {
  for (const std::vector<double>& scores : AwkwardScores()) {
    const std::vector<uint32_t> want = FullSort(scores);
    const size_t n = scores.size();
    for (size_t d : {size_t{1}, n / 3 + 1, n}) {
      auto first = RankedListSet::Build({scores});
      ASSERT_TRUE(first.ok());
      for (size_t r = 0; r < d; ++r) first->IdAtRank(0, r);
      const RankedListSet::Prefix prefix = first->SortedPrefix(0);
      ASSERT_GE(prefix.size(), d);
      EXPECT_EQ(prefix.size(), first->sorted(0));

      auto resumed = RankedListSet::Build({scores}, {prefix});
      ASSERT_TRUE(resumed.ok());
      EXPECT_EQ(resumed->sorted(0), prefix.size());
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(resumed->IdAtRank(0, r), want[r])
            << "n=" << n << " d=" << d << " r=" << r;
      }
    }
  }
}

TEST(RankedListSetTest, RejectsMismatchedRankings) {
  const std::vector<double> scores = {3.0, 1.0, 2.0};
  const RankedListSet::Prefix long_prefix{1, 2, 0, 1};
  const RankedListSet::Prefix foreign_prefix{7};
  EXPECT_FALSE(RankedListSet::Build({scores}, {long_prefix}).ok());
  EXPECT_FALSE(RankedListSet::Build({scores}, {foreign_prefix}).ok());
  EXPECT_FALSE(RankedListSet::Build({scores, scores}, {{}}).ok());
  EXPECT_TRUE(RankedListSet::Build({scores, scores}, {{}, {}}).ok());
}

// Fagin and TA over lazy lists read exactly what they read over lists
// sorted in full before the first access.
TEST(RankedListSetTest, FaginAndTaSeeTheSameListsLazyOrPresorted) {
  Rng rng(31);
  for (size_t n : {40u, 300u, 3000u}) {
    for (double rho : {0.0, 0.8}) {
      std::vector<double> shared(n);
      for (double& v : shared) v = rng.NextDouble();
      std::vector<std::vector<double>> scores(4, std::vector<double>(n));
      for (auto& list : scores) {
        for (size_t i = 0; i < n; ++i) {
          // Rounded so that ties occur within and across parties.
          list[i] = std::round(
              100.0 * (rho * shared[i] + (1.0 - rho) * rng.NextDouble()));
        }
      }
      std::vector<RankedListSet::Prefix> presorted;  // sorted in full
      for (const auto& list : scores) presorted.push_back(FullSort(list));
      for (size_t batch : {1u, 16u}) {
        auto lazy = RankedListSet::Build(scores);
        auto full = RankedListSet::Build(scores, presorted);
        ASSERT_TRUE(lazy.ok() && full.ok());
        auto a = FaginTopk(*lazy, 10, batch);
        auto b = FaginTopk(*full, 10, batch);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a->ids, b->ids);
        EXPECT_EQ(a->candidate_ids, b->candidate_ids);
        EXPECT_EQ(a->depth, b->depth);
        EXPECT_EQ(a->sorted_accesses, b->sorted_accesses);
        EXPECT_EQ(a->random_accesses, b->random_accesses);
      }
      auto lazy = RankedListSet::Build(scores);
      auto full = RankedListSet::Build(scores, presorted);
      ASSERT_TRUE(lazy.ok() && full.ok());
      auto a = ThresholdTopk(*lazy, 10);
      auto b = ThresholdTopk(*full, 10);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->ids, b->ids);
      EXPECT_EQ(a->candidate_ids, b->candidate_ids);
      EXPECT_EQ(a->depth, b->depth);
      EXPECT_EQ(a->sorted_accesses, b->sorted_accesses);
      EXPECT_EQ(a->random_accesses, b->random_accesses);
    }
  }
}

TEST(FaginTest, PaperFigure2Example) {
  // Fig. 2: three participants, ascending lists; minimal-2 = {X1, X2}.
  // Scores by item id (X1=0, X2=1, X3=2, X4=3), constructed so the ranked
  // lists match the figure's structure.
  std::vector<std::vector<double>> scores = {
      {1.0, 2.0, 3.0, 4.0},   // P1: X1 < X2 < X3 < X4
      {2.0, 1.0, 3.0, 4.0},   // P2: X2 < X1 < X3 < X4
      {1.0, 3.0, 2.0, 4.0},   // P3: X1 < X3 < X2 < X4
  };
  auto lists = RankedListSet::Build(scores);
  ASSERT_TRUE(lists.ok());
  auto result = FaginTopk(*lists, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AsSet(result->ids), (std::set<uint64_t>{0, 1}));
  // X4 was never seen before termination, so at most 3 candidates.
  EXPECT_LE(result->candidates, 3u);
}

class TopkEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(TopkEquivalenceTest, FaginMatchesNaive) {
  const auto [parties, items, k] = GetParam();
  auto lists = RankedListSet::Build(RandomScores(parties, items, parties * 1000 + items));
  ASSERT_TRUE(lists.ok());
  auto naive = NaiveTopk(*lists, k);
  auto fagin = FaginTopk(*lists, k);
  ASSERT_TRUE(naive.ok() && fagin.ok());
  EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids));
}

TEST_P(TopkEquivalenceTest, ThresholdMatchesNaive) {
  const auto [parties, items, k] = GetParam();
  auto lists = RankedListSet::Build(RandomScores(parties, items, parties * 77 + items));
  ASSERT_TRUE(lists.ok());
  auto naive = NaiveTopk(*lists, k);
  auto ta = ThresholdTopk(*lists, k);
  ASSERT_TRUE(naive.ok() && ta.ok());
  EXPECT_EQ(AsSet(ta->ids), AsSet(naive->ids));
}

TEST_P(TopkEquivalenceTest, FaginWithBatchingMatchesNaive) {
  const auto [parties, items, k] = GetParam();
  auto lists = RankedListSet::Build(RandomScores(parties, items, 31 * parties + items));
  ASSERT_TRUE(lists.ok());
  auto naive = NaiveTopk(*lists, k);
  ASSERT_TRUE(naive.ok());
  for (size_t batch : {1u, 4u, 16u, 64u}) {
    auto fagin = FaginTopk(*lists, k, batch);
    ASSERT_TRUE(fagin.ok());
    EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids)) << "batch=" << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopkEquivalenceTest,
    ::testing::Values(std::make_tuple(2, 50, 5), std::make_tuple(3, 100, 10),
                      std::make_tuple(4, 500, 10), std::make_tuple(8, 200, 3),
                      std::make_tuple(4, 64, 1), std::make_tuple(2, 10, 10),
                      std::make_tuple(5, 1000, 25)));

TEST(FaginTest, CandidateSetSupersetOfTopk) {
  auto lists = RankedListSet::Build(RandomScores(4, 300, 5));
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 10);
  ASSERT_TRUE(fagin.ok());
  const auto candidates = AsSet(fagin->candidate_ids);
  for (uint64_t id : fagin->ids) EXPECT_TRUE(candidates.count(id)) << id;
  EXPECT_EQ(fagin->candidates, fagin->candidate_ids.size());
}

TEST(FaginTest, CandidatesFarFewerThanItemsOnCorrelatedLists) {
  // When parties agree on the ranking, Fagin terminates at depth ~k.
  const size_t n = 2000;
  std::vector<double> base(n);
  for (size_t i = 0; i < n; ++i) base[i] = static_cast<double>(i);
  auto lists = RankedListSet::Build({base, base, base, base});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 10);
  ASSERT_TRUE(fagin.ok());
  EXPECT_EQ(fagin->depth, 10u);
  EXPECT_EQ(fagin->candidates, 10u);
}

TEST(FaginTest, AntiCorrelatedListsNeedDeepScan) {
  // Perfectly opposed rankings force a deep scan (worst case for FA).
  const size_t n = 100;
  std::vector<double> ascending(n), descending(n);
  for (size_t i = 0; i < n; ++i) {
    ascending[i] = static_cast<double>(i);
    descending[i] = static_cast<double>(n - i);
  }
  auto lists = RankedListSet::Build({ascending, descending});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 1);
  ASSERT_TRUE(fagin.ok());
  EXPECT_GE(fagin->depth, n / 2);
  auto naive = NaiveTopk(*lists, 1);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids));
}

TEST(ThresholdTest, StopsEarlierThanFaginOnCorrelatedLists) {
  auto scores = RandomScores(1, 1000, 9)[0];
  auto lists = RankedListSet::Build({scores, scores, scores});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 20);
  auto ta = ThresholdTopk(*lists, 20);
  ASSERT_TRUE(fagin.ok() && ta.ok());
  EXPECT_LE(ta->depth, fagin->depth);
}

TEST(TopkTest, KLargerThanNClamps) {
  auto lists = RankedListSet::Build(RandomScores(2, 5, 3));
  ASSERT_TRUE(lists.ok());
  for (auto run : {FaginTopk(*lists, 10, 1), ThresholdTopk(*lists, 10),
                   NaiveTopk(*lists, 10)}) {
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->ids.size(), 5u);
  }
}

TEST(TopkTest, KZeroRejected) {
  auto lists = RankedListSet::Build(RandomScores(2, 5, 3));
  ASSERT_TRUE(lists.ok());
  EXPECT_FALSE(FaginTopk(*lists, 0).ok());
  EXPECT_FALSE(ThresholdTopk(*lists, 0).ok());
  EXPECT_FALSE(NaiveTopk(*lists, 0).ok());
}

TEST(TopkTest, SinglePartyDegenerates) {
  auto lists = RankedListSet::Build({{5.0, 1.0, 3.0, 2.0, 4.0}});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 2);
  ASSERT_TRUE(fagin.ok());
  EXPECT_EQ(AsSet(fagin->ids), (std::set<uint64_t>{1, 3}));
  EXPECT_EQ(fagin->depth, 2u);
}

}  // namespace
}  // namespace vfps::topk
