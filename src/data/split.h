#ifndef PAFEAT_DATA_SPLIT_H_
#define PAFEAT_DATA_SPLIT_H_

#include <vector>

#include "common/rng.h"
#include "data/table.h"

namespace pafeat {

struct TrainTestSplit {
  std::vector<int> train_rows;
  std::vector<int> test_rows;
};

// Random split with the paper's 70/30 default (§IV-A4).
TrainTestSplit MakeSplit(int num_rows, double train_fraction, Rng* rng);

// Per-feature z-score standardizer fitted on training rows only.
class Standardizer {
 public:
  // Fits mean/stddev per column over the given rows of `features`.
  void Fit(const Matrix& features, const std::vector<int>& rows);

  // Returns a standardized copy of all rows.
  Matrix Transform(const Matrix& features) const;

 private:
  std::vector<float> means_;
  std::vector<float> stddevs_;
};

}  // namespace pafeat

#endif  // PAFEAT_DATA_SPLIT_H_
