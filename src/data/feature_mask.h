#ifndef PAFEAT_DATA_FEATURE_MASK_H_
#define PAFEAT_DATA_FEATURE_MASK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pafeat {

// A feature subset as a dense 0/1 mask over the shared feature space.
// This is the currency of the whole library: environments produce masks,
// evaluators consume them, and baselines return them.
using FeatureMask = std::vector<uint8_t>;

// Number of selected features.
int MaskCount(const FeatureMask& mask);

// Selected feature indices in increasing order.
std::vector<int> MaskToIndices(const FeatureMask& mask);

// Mask of size `num_features` with the given indices set.
FeatureMask IndicesToMask(const std::vector<int>& indices, int num_features);

// Byte-string key for hash maps that mix a mask with other bytes (e.g. the
// feat_based state memo). The hot reward-cache path uses PackMask instead.
std::string MaskKey(const FeatureMask& mask);

// A mask packed 64 bits per word: the reward-cache key. Compared to the
// byte-string MaskKey it hashes/compares eight features per op and skips
// std::string's character-wise hashing.
using PackedMask = std::vector<uint64_t>;

PackedMask PackMask(const FeatureMask& mask);

// splitmix64-finalizer-based mix over the packed words, for unordered_map.
struct PackedMaskHash {
  size_t operator()(const PackedMask& packed) const;
};

}  // namespace pafeat

#endif  // PAFEAT_DATA_FEATURE_MASK_H_
