// What one run hands back: the correctness verdict, operation counts and
// metrics by name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;        // scratch space (WALs, spans file)
  int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // reported with --trace 0
  std::vector<Metric> per_layer;   // reported with --trace 1
  std::vector<Metric> detail;      // printed for reading, not gated

  void Problem(const std::string& what) {
    if (what.empty()) return;
    correct = false;
    if (problems.size() < 8) problems.push_back(what);
  }
};

}  // namespace perfbench
