#include "data/feature_mask.h"

#include "common/logging.h"

namespace pafeat {

int MaskCount(const FeatureMask& mask) {
  int count = 0;
  for (uint8_t bit : mask) count += bit ? 1 : 0;
  return count;
}

std::vector<int> MaskToIndices(const FeatureMask& mask) {
  std::vector<int> indices;
  for (int i = 0; i < static_cast<int>(mask.size()); ++i) {
    if (mask[i]) indices.push_back(i);
  }
  return indices;
}

FeatureMask IndicesToMask(const std::vector<int>& indices, int num_features) {
  FeatureMask mask(num_features, 0);
  for (int i : indices) {
    PF_CHECK_GE(i, 0);
    PF_CHECK_LT(i, num_features);
    mask[i] = 1;
  }
  return mask;
}

std::string MaskKey(const FeatureMask& mask) {
  // Pack 8 mask bits per output byte.
  std::string key((mask.size() + 7) / 8, '\0');
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) key[i / 8] |= static_cast<char>(1 << (i % 8));
  }
  return key;
}

PackedMask PackMask(const FeatureMask& mask) {
  PackedMask packed((mask.size() + 63) / 64, 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) packed[i >> 6] |= uint64_t{1} << (i & 63);
  }
  return packed;
}

size_t PackedMaskHash::operator()(const PackedMask& packed) const {
  uint64_t h = 0x9e3779b97f4a7c15ull + packed.size();
  for (uint64_t word : packed) {
    uint64_t x = word + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    h = (h ^ x) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return static_cast<size_t>(h);
}

}  // namespace pafeat
