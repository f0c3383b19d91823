#include "vfl/selection_cache.h"

#include <algorithm>
#include <utility>

namespace vfps::vfl {

void SelectionCache::Rekey(const Key& key) {
  if (bound_ && key == key_) return;
  key_ = key;
  bound_ = true;
  units_.assign(key.num_units, CachedUnit{});
}

void SelectionCache::Absorb(size_t u, CachedUnit&& produced) {
  if (u >= units_.size()) return;
  CachedUnit& unit = units_[u];
  for (auto& [key, state] : produced.entries) {
    PartyUnitState& dst = unit.entries[key];
    if (!state.values.empty()) {
      dst = std::move(state);
    } else {
      dst.streamed_depth = std::max(dst.streamed_depth, state.streamed_depth);
      if (state.ranking.size() > dst.ranking.size()) {
        dst.ranking = std::move(state.ranking);
      }
    }
  }
}

void SelectionCache::Clear() {
  bound_ = false;
  key_ = Key{};
  units_.clear();
}

}  // namespace vfps::vfl
