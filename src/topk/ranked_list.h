#ifndef VFPS_TOPK_RANKED_LIST_H_
#define VFPS_TOPK_RANKED_LIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace vfps::topk {

/// \brief The multi-party top-k input: P parties each scoring the same N
/// items (item id = index into the score vector). Each party's list ranks
/// its items in ascending score order, ties broken by id, because vertical
/// KNN wants the k *smallest* aggregate distances.
///
/// Provides the two access modes of the classic middleware model (Fagin et
/// al.): sorted access (next item in a party's rank order) and random access
/// (a party's score for a given item).
///
/// Sorted access is lazy: a list is only ordered as deep as it is read.
/// Reading a rank beyond a party's sorted prefix extends the prefix
/// (`nth_element` over the unsorted tail, then a sort of the new chunk; see
/// docs/KERNELS.md), so every rank reads the id a full sort would give.
/// Because sorted access mutates the lists, one instance must not serve
/// sorted access from two threads at once; random access (`Score`,
/// `AggregateScore`) is read-only.
class RankedListSet {
 public:
  /// One party's sorted prefix: the item ids at its list's ranks
  /// [0, size()). It depends only on that party's scores, so it can be
  /// exported, kept and resumed; a list read to depth d keeps d ids, not n.
  /// Ids are stored in 32 bits (Build rejects lists of 2^32 items or more),
  /// half the memory of 64-bit ids.
  using Prefix = std::vector<uint32_t>;

  /// \param scores_per_party one score vector per party; all the same size.
  /// \param prefixes optional per-party sorted prefixes to resume from (e.g.
  ///        cached sub-rankings surviving a membership change): empty, or one
  ///        per party, where an empty prefix starts from nothing sorted. A
  ///        non-empty prefix must be one this class exported for the same
  ///        scores; only its length and id range are validated.
  static Result<RankedListSet> Build(
      std::vector<std::vector<double>> scores_per_party,
      std::vector<Prefix> prefixes = {});

  size_t num_parties() const { return scores_.size(); }
  size_t num_items() const { return scores_.empty() ? 0 : scores_[0].size(); }

  /// Item id at rank `r` (0 = smallest score) in party `p`'s list (sorted
  /// access; sorts the list through rank `r` if it is not yet).
  uint64_t IdAtRank(size_t party, size_t rank) {
    Ranking& ranking = rankings_[party];
    if (rank >= ranking.sorted) SortThrough(party, rank);
    return ranking.order[rank];
  }

  /// How deep party `p`'s list is sorted so far.
  size_t sorted(size_t party) const { return rankings_[party].sorted; }

  /// Party `p`'s sorted prefix, to export.
  Prefix SortedPrefix(size_t party) const {
    const Ranking& ranking = rankings_[party];
    const auto end =
        ranking.order.begin() + static_cast<std::ptrdiff_t>(ranking.sorted);
    return {ranking.order.begin(), end};
  }

  /// Party `p`'s score for item `id` (random access).
  double Score(size_t party, uint64_t id) const { return scores_[party][id]; }

  /// Aggregate (sum) score of an item across all parties.
  double AggregateScore(uint64_t id) const;

 private:
  // A party's ranking state: its first `sorted` ids are the list's ranks
  // [0, sorted). A resumed prefix keeps its tail implicit until sorted
  // access first reads past it; from then on `order` is a permutation.
  struct Ranking {
    std::vector<uint32_t> order;
    size_t sorted = 0;
  };

  RankedListSet() = default;
  // Extends party `p`'s sorted prefix to cover at least rank `rank`.
  void SortThrough(size_t party, size_t rank);

  std::vector<std::vector<double>> scores_;  // [party][id] -> score
  std::vector<Ranking> rankings_;            // [party]
};

/// \brief Outcome of a top-k run plus the access counts that drive the
/// efficiency comparison (Fig. 9 counts candidates; the cost model converts
/// accesses into communication).
struct TopkResult {
  std::vector<uint64_t> ids;  // the k items with smallest aggregate score
  /// Every distinct item whose aggregate was (or must be) evaluated — in the
  /// VFPS-SM protocol this is exactly the set whose partial distances get
  /// encrypted and transmitted (Fig. 9's y-axis).
  std::vector<uint64_t> candidate_ids;
  size_t depth = 0;            // sorted-access rows consumed per party
  size_t sorted_accesses = 0;  // total sorted accesses across parties
  size_t random_accesses = 0;  // random-access score lookups
  size_t candidates = 0;       // == candidate_ids.size()
};

}  // namespace vfps::topk

#endif  // VFPS_TOPK_RANKED_LIST_H_
