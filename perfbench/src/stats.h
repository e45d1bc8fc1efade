// Sample statistics and the open-loop schedule, kept apart from the
// program's own histograms: every percentile the benchmark reports is
// computed here from raw samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Percentile of `samples` by linear interpolation between the two closest
// ranks (rank = p * (n - 1), the "type 7" estimator). p in [0, 1].
// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// Tracing overhead: the median of the operations that recorded spans over
// the median of those that did not, minus one, in percent.
double OverheadPct(const std::vector<double>& op_us,
                   const std::vector<uint8_t>& traced);

// Open-loop arrivals: request i is due at start + i * period, whether or
// not earlier requests have completed. A request is timed from its due
// time, so a stall is charged to every request queued behind it.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t period_ns = 1;
  int64_t Due(uint64_t i) const {
    return start_ns + static_cast<int64_t>(i) * period_ns;
  }
};

struct OpenLoopResult {
  std::vector<double> latency_us;   // completion - due, per request
  std::vector<double> lateness_us;  // send - due, per request
};

// Sends requests first, first + stride, ... of `schedule` that fall due
// before `end_ns`, one at a time from the calling thread: wait for the due
// time (if it has not passed yet), run `op`, record completion - due.
// `clock` supplies Now() and SleepUntil(t); `op(i)` runs request i.
template <class Clock, class Op>
OpenLoopResult RunOpenLoop(const OpenLoopSchedule& schedule, uint64_t first,
                           uint64_t stride, int64_t end_ns, Clock& clock,
                           Op&& op) {
  OpenLoopResult out;
  for (uint64_t i = first; schedule.Due(i) < end_ns; i += stride) {
    const int64_t due = schedule.Due(i);
    if (clock.Now() < due) clock.SleepUntil(due);
    const int64_t sent = clock.Now();
    op(i);
    const int64_t done = clock.Now();
    out.latency_us.push_back(static_cast<double>(done - due) / 1e3);
    out.lateness_us.push_back(static_cast<double>(sent - due) / 1e3);
  }
  return out;
}

}  // namespace perfbench
