#include "topk/ranked_list.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace vfps::topk {

Result<RankedListSet> RankedListSet::Build(
    std::vector<std::vector<double>> scores_per_party,
    std::vector<Prefix> prefixes) {
  VFPS_CHECK_ARG(!scores_per_party.empty(), "RankedListSet: need >= 1 party");
  const size_t n = scores_per_party[0].size();
  VFPS_CHECK_ARG(n > 0, "RankedListSet: empty score lists");
  VFPS_CHECK_ARG(n <= std::numeric_limits<uint32_t>::max(),
                 "RankedListSet: more items than 32-bit ids hold");
  for (const auto& scores : scores_per_party) {
    VFPS_CHECK_ARG(scores.size() == n, "RankedListSet: size mismatch across parties");
  }
  if (prefixes.empty()) prefixes.resize(scores_per_party.size());
  VFPS_CHECK_ARG(prefixes.size() == scores_per_party.size(),
                 "RankedListSet: scores/prefixes party-count mismatch");
  RankedListSet set;
  set.rankings_.resize(prefixes.size());
  for (size_t p = 0; p < prefixes.size(); ++p) {
    Prefix& prefix = prefixes[p];
    VFPS_CHECK_ARG(prefix.size() <= n,
                   "RankedListSet: prefix longer than the list");
    for (uint32_t id : prefix) {
      VFPS_CHECK_ARG(id < n, "RankedListSet: prefix invents ids");
    }
    set.rankings_[p].sorted = prefix.size();
    if (prefix.empty()) {  // a fresh list starts from the identity
      prefix.resize(n);
      std::iota(prefix.begin(), prefix.end(), uint32_t{0});
    }
    set.rankings_[p].order = std::move(prefix);
  }
  set.scores_ = std::move(scores_per_party);
  return set;
}

namespace {

// Appends to a sorted prefix the ids it lacks, in ascending order. Sorted
// access orders the tail before it reads it, so any tail order resumes to
// the same list.
void AppendMissingIds(std::vector<uint32_t>* order, size_t n) {
  std::vector<uint8_t> present(n, 0);
  for (uint32_t id : *order) present[id] = 1;
  // Branch-free: every id is written, and the cursor advances past the
  // absent ones only (one spare slot takes the last write; the clamp keeps a
  // prefix with repeated ids, which Build does not check, in bounds).
  size_t at = order->size();
  order->resize(n + 1);
  for (uint32_t id = 0; id < n; ++id) {
    (*order)[std::min(at, n)] = id;
    at += present[id] ^ 1u;
  }
  order->resize(n);
}

}  // namespace

void RankedListSet::SortThrough(size_t party, size_t rank) {
  const std::vector<double>& scores = scores_[party];
  Ranking& ranking = rankings_[party];
  const size_t n = scores.size();
  if (ranking.order.size() < n) AppendMissingIds(&ranking.order, n);
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
