#include "topk/ranked_list.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace vfps::topk {

Result<RankedListSet> RankedListSet::Build(
    std::vector<std::vector<double>> scores_per_party,
    std::vector<Ranking> rankings) {
  VFPS_CHECK_ARG(!scores_per_party.empty(), "RankedListSet: need >= 1 party");
  const size_t n = scores_per_party[0].size();
  VFPS_CHECK_ARG(n > 0, "RankedListSet: empty score lists");
  VFPS_CHECK_ARG(n <= std::numeric_limits<uint32_t>::max(),
                 "RankedListSet: more items than 32-bit ids hold");
  for (const auto& scores : scores_per_party) {
    VFPS_CHECK_ARG(scores.size() == n, "RankedListSet: size mismatch across parties");
  }
  if (rankings.empty()) rankings.resize(scores_per_party.size());
  VFPS_CHECK_ARG(rankings.size() == scores_per_party.size(),
                 "RankedListSet: scores/rankings party-count mismatch");
  for (Ranking& ranking : rankings) {
    if (ranking.order.empty()) {
      ranking.order.resize(n);
      std::iota(ranking.order.begin(), ranking.order.end(), uint32_t{0});
      ranking.sorted = 0;
    }
    VFPS_CHECK_ARG(ranking.order.size() == n && ranking.sorted <= n,
                   "RankedListSet: ranking/scores size mismatch");
  }
  RankedListSet set;
  set.scores_ = std::move(scores_per_party);
  set.rankings_ = std::move(rankings);
  return set;
}

void RankedListSet::SortThrough(size_t party, size_t rank) {
  const std::vector<double>& scores = scores_[party];
  Ranking& ranking = rankings_[party];
  const size_t n = scores.size();
  // The prefix grows geometrically (first chunk n/16, at least 256, then
  // doubling), so a list read to depth d costs one O(n) partition per
  // doubling plus an O(d log d) sort instead of a full O(n log n) sort.
  const size_t first = std::max<size_t>(n / 16, 256);
  const size_t end =
      std::min(n, std::max({rank + 1, first, 2 * ranking.sorted}));
  // Ascending score, ties broken by id: a total order, so every prefix is
  // the same whichever chunks built it.
  const auto before = [&scores](uint32_t a, uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  };
  std::vector<uint32_t>& order = ranking.order;
  const auto lo = order.begin() + static_cast<std::ptrdiff_t>(ranking.sorted);
  const auto hi = order.begin() + static_cast<std::ptrdiff_t>(end);
  if (end < n) std::nth_element(lo, hi, order.end(), before);
  std::sort(lo, hi, before);
  ranking.sorted = end;
}

double RankedListSet::AggregateScore(uint64_t id) const {
  double sum = 0.0;
  for (const auto& scores : scores_) sum += scores[id];
  return sum;
}

}  // namespace vfps::topk
