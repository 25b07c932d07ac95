#include "core/multi_run.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace pafeat {

RunStatistics Summarize(const std::vector<double>& values) {
  PF_CHECK(!values.empty());
  RunStatistics statistics;
  statistics.runs = static_cast<int>(values.size());
  statistics.min = values[0];
  statistics.max = values[0];
  double total = 0.0;
  for (double v : values) {
    total += v;
    statistics.min = std::min(statistics.min, v);
    statistics.max = std::max(statistics.max, v);
  }
  statistics.mean = total / statistics.runs;
  if (statistics.runs > 1) {
    double sum_sq = 0.0;
    for (double v : values) {
      const double d = v - statistics.mean;
      sum_sq += d * d;
    }
    statistics.stddev = std::sqrt(sum_sq / (statistics.runs - 1));
  }
  return statistics;
}

std::string FormatMeanStd(const RunStatistics& statistics, int digits) {
  return FormatDouble(statistics.mean, digits) + " ± " +
         FormatDouble(statistics.stddev, digits);
}

}  // namespace pafeat
