#include "topk/fagin.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/metrics.h"

namespace vfps::topk {

Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k,
                             size_t batch, obs::MetricsRegistry* obs) {
  const size_t n = lists.num_items();
  const size_t p = lists.num_parties();
  VFPS_CHECK_ARG(k >= 1, "Fagin: k must be >= 1");
  VFPS_CHECK_ARG(batch >= 1, "Fagin: batch must be >= 1");
  k = std::min(k, n);

  TopkResult result;
  // seen_count[id] = number of lists the item has appeared in so far.
  std::vector<uint32_t> seen_count(n, 0);
  std::vector<uint64_t> seen_order;  // distinct items in first-seen order
  seen_order.reserve(2 * k * p);
  size_t fully_seen = 0;

  // Phase 1: round-robin sorted access in mini-batches.
  size_t depth = 0;
  size_t rounds = 0;
  while (fully_seen < k && depth < n) {
    ++rounds;
    const size_t limit = std::min(n, depth + batch);
    for (size_t party = 0; party < p; ++party) {
      for (size_t r = depth; r < limit; ++r) {
        const uint64_t id = lists.IdAtRank(party, r);
        ++result.sorted_accesses;
        if (seen_count[id] == 0) seen_order.push_back(id);
        if (++seen_count[id] == p) ++fully_seen;
      }
    }
    depth = limit;
  }
  result.depth = depth;

  // Phase 2 + 3: aggregate every seen item (random accesses fill in the
  // scores not yet revealed by sorted access).
  std::vector<std::pair<double, uint64_t>> aggregated;
  aggregated.reserve(seen_order.size());
  for (uint64_t id : seen_order) {
    result.random_accesses += p - seen_count[id];
    aggregated.emplace_back(lists.AggregateScore(id), id);
  }
  result.candidates = aggregated.size();
  result.candidate_ids = seen_order;

  const size_t take = std::min(k, aggregated.size());
  std::partial_sort(aggregated.begin(), aggregated.begin() + take,
                    aggregated.end());
  result.ids.reserve(take);
  for (size_t i = 0; i < take; ++i) result.ids.push_back(aggregated[i].second);

  if (obs != nullptr) {
    obs->GetCounter("topk.fagin.runs")->Add(1);
    obs->GetCounter("topk.fagin.rounds")->Add(rounds);
    obs->GetCounter("topk.fagin.sorted_access_depth")->Add(result.depth);
    obs->GetCounter("topk.fagin.sorted_accesses")->Add(result.sorted_accesses);
    obs->GetCounter("topk.fagin.random_accesses")->Add(result.random_accesses);
    obs->GetHistogram("topk.fagin.candidates")->Record(result.candidates);
  }
  return result;
}

}  // namespace vfps::topk
