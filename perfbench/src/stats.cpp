#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double OverheadPct(const std::vector<double>& op_us,
                   const std::vector<uint8_t>& traced) {
  std::vector<double> on, off;
  for (size_t i = 0; i < op_us.size() && i < traced.size(); ++i) {
    (traced[i] ? on : off).push_back(op_us[i]);
  }
  const double base = Median(off);
  return base > 0 ? 100.0 * (Median(on) / base - 1.0) : 0.0;
}

}  // namespace perfbench
