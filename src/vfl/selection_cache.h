#ifndef VFPS_VFL_SELECTION_CACHE_H_
#define VFPS_VFL_SELECTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "he/backend.h"
#include "topk/ranked_list.h"

namespace vfps::vfl {

/// \brief One participant's cached contribution to one shard of one protocol
/// unit (a query, or a slot-batched group of queries).
///
/// Privacy framing: `values` (and `ranking`) are the party's OWN plaintext
/// partial distances — in a real deployment each party would hold its slice
/// of this cache locally, exactly like the live protocol state it mirrors.
/// `cipher` is the ciphertext the aggregation server already received; the
/// server caching what it was sent leaks nothing new. The leader still only
/// ever sees decrypted aggregates, so the cache does not change who learns
/// what — it only remembers it across membership changes.
struct PartyUnitState {
  /// BASE modes: the packed partial-distance vector this party encrypted for
  /// the shard (the shard's rows of each query, group-concatenated). Top-k
  /// modes: the party's score vector over the shard's rows in pseudo-ID
  /// order (+inf at the query's own row).
  std::vector<double> values;
  /// Top-k modes: the party's sorted prefix over `values` — the item indices
  /// of the sub-ranking (ascending by score, ties by index) as deep as a run
  /// sorted it (RankedListSet::SortedPrefix). Staged after narrowing, so a
  /// repair resumes the lazy sort instead of sorting from scratch; an entry
  /// whose ranking is empty (its run failed before narrowing) ranks its
  /// `values` from scratch.
  topk::RankedListSet::Prefix ranking;
  /// BASE modes: the ciphertext of `values` as held by the aggregation
  /// server. On repair the server re-sums cached ciphertexts instead of
  /// asking survivors to recompute, re-encrypt, and resend.
  he::EncryptedVector cipher;
  bool has_cipher = false;
  /// Top-k modes: how many ranking rows the server has already streamed from
  /// this party; a repair run only streams the delta beyond this depth.
  size_t streamed_depth = 0;
};

/// \brief Contributions cached for one protocol unit, keyed by (shard,
/// participant). A sharded unit therefore keeps one entry per shard and
/// party — O(N·P) values per unit in total, as an unsharded one does.
struct CachedUnit {
  std::map<std::pair<size_t, size_t>, PartyUnitState> entries;
};

/// \brief Participant-keyed contribution cache that survives membership
/// changes — the state store behind incremental selection repair.
///
/// The cache is keyed by the protocol shape (seed, mode, k, query set,
/// grouping, dataset size): re-keying with a different shape drops every
/// entry, re-keying with the same shape keeps them. Within a matching
/// shape, unit u of any run computes identical per-party contributions
/// regardless of which other participants are active (partial distances
/// and sub-rankings are party-local), which is what makes reuse sound:
///
///   - on leave, survivors' cached values/ciphers are reused verbatim and
///     only the aggregation over the new membership is redone;
///   - on join, only the newcomer computes fresh contributions and the
///     cached remainder is spliced in around them.
///
/// Thread-safety: Rekey/Absorb are driven from one thread between runs;
/// during a run, query tasks only READ the cache (each task touches its own
/// unit) and write to task-local staging absorbed afterwards in unit order,
/// so the contents are independent of the thread count.
class SelectionCache {
 public:
  struct Key {
    uint64_t seed = 0;
    int mode = 0;
    size_t k = 0;
    size_t num_queries = 0;
    size_t fagin_batch = 0;
    size_t group = 1;
    size_t n_rows = 0;
    size_t num_units = 0;
    /// Shard layout of the run: entries are per (shard, party), so a cache
    /// carried across a --shards/--prefilter change is cleared instead of
    /// reusing entries cut for another layout.
    size_t shards = 1;
    size_t prefilter_clusters = 0;

    bool operator==(const Key& o) const {
      return seed == o.seed && mode == o.mode && k == o.k &&
             num_queries == o.num_queries && fagin_batch == o.fagin_batch &&
             group == o.group && n_rows == o.n_rows &&
             num_units == o.num_units && shards == o.shards &&
             prefilter_clusters == o.prefilter_clusters;
    }
  };

  /// Bind the cache to a protocol shape. A different shape (or the first
  /// call) clears all entries and sizes the unit table; the same shape is a
  /// no-op that keeps every cached contribution.
  void Rekey(const Key& key);

  /// The cached state of unit `u`, or nullptr when unbound / out of range.
  const CachedUnit* unit(size_t u) const {
    return u < units_.size() ? &units_[u] : nullptr;
  }

  /// Fold one unit's freshly produced contributions in. Entries carrying
  /// values replace the cached party state; value-less entries (a cached
  /// party whose ranking was sorted or streamed deeper) only advance
  /// `streamed_depth` and keep the deeper of the two rankings.
  void Absorb(size_t u, CachedUnit&& produced);

  void Clear();
  bool bound() const { return bound_; }
  size_t num_units() const { return units_.size(); }

 private:
  Key key_;
  bool bound_ = false;
  std::vector<CachedUnit> units_;
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_SELECTION_CACHE_H_
