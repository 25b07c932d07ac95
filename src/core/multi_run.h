#ifndef PAFEAT_CORE_MULTI_RUN_H_
#define PAFEAT_CORE_MULTI_RUN_H_

#include <string>
#include <vector>

namespace pafeat {

// Aggregate statistics over independent experiment runs — the paper reports
// every number as the average of 5 independent runs (§IV-A4); the benches
// expose a --runs flag backed by this helper.
struct RunStatistics {
  int runs = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation (n - 1)
  double min = 0.0;
  double max = 0.0;
};

RunStatistics Summarize(const std::vector<double>& values);

// "0.7312 ± 0.0123" with the given digit count.
std::string FormatMeanStd(const RunStatistics& statistics, int digits);

}  // namespace pafeat

#endif  // PAFEAT_CORE_MULTI_RUN_H_
