#ifndef VFPS_VFL_PSEUDO_ID_H_
#define VFPS_VFL_PSEUDO_ID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vfps::vfl {

/// \brief Identity-protecting pseudo-ID mapping (paper §IV-B step 1 and the
/// identity-security argument of §IV-C).
///
/// All participants derive the same permutation from a shared seed, so the
/// aggregation server only ever sees pseudo IDs; participants can remap
/// candidates back to original row indices locally.
///
/// Immutable after Create(); safe to share read-only across threads. The
/// KNN oracle builds one map per Run and every query task reads it
/// concurrently.
class PseudoIdMap {
 public:
  /// Build the permutation for `count` instances from the consortium seed.
  /// Deterministic: the same (count, shared_seed) always yields the same
  /// permutation. O(count) time and memory.
  static PseudoIdMap Create(size_t count, uint64_t shared_seed);

  size_t count() const { return to_pseudo_.size(); }

  uint64_t ToPseudo(uint64_t original) const { return to_pseudo_[original]; }
  uint64_t ToOriginal(uint64_t pseudo) const { return to_original_[pseudo]; }

 private:
  std::vector<uint64_t> to_pseudo_;
  std::vector<uint64_t> to_original_;
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_PSEUDO_ID_H_
