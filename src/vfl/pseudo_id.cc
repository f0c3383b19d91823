#include "vfl/pseudo_id.h"

#include "common/random.h"

namespace vfps::vfl {

PseudoIdMap PseudoIdMap::Create(size_t count, uint64_t shared_seed) {
  PseudoIdMap map;
  Rng rng(shared_seed ^ 0x9D5E1D00ULL);
  auto perm = rng.Permutation(count);
  map.to_pseudo_.assign(perm.begin(), perm.end());
  map.to_original_.resize(count);
  for (size_t i = 0; i < count; ++i) map.to_original_[map.to_pseudo_[i]] = i;
  return map;
}

}  // namespace vfps::vfl
