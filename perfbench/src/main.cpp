// perfbench: one run of one workload.
//
//   perfbench --workload <read_hot|feed|games_day|recover> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the workload's figures for reading, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end ones, or with --trace 1 the per-layer ones. The traced run
// also writes its spans to <work-dir>/spans-<workload>.jsonl.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "host.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->work_dir.empty() && args->seconds > 0 &&
         (args->workload == "read_hot" || args->workload == "feed" ||
          args->workload == "games_day" || args->workload == "recover");
}

void PrintMetric(std::FILE* out, const Metric& m, bool first) {
  std::fprintf(out, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
               first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start_ns = NowNs();
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload read_hot|feed|games_day|recover "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const std::string scratch = args.work_dir + "/run";
  std::filesystem::remove_all(scratch);
  Args run_args = args;
  run_args.work_dir = scratch;
  std::filesystem::create_directories(scratch);

  const CpuPlan cpus = CpuPlan::Detect();
  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "recover") {
    RunRecoverWorkload(run_args, cpus, tracer, &report);
    if (args.trace) ProbeClusterLayers(run_args, cpus, tracer, &report);
  } else {
    RunClusterWorkload(run_args, cpus, tracer, &report);
    if (args.trace) ProbeStorageLayers(run_args, cpus, tracer, &report);
  }
  report.end_to_end.push_back({"rss_mb", PeakRssMb(), "MB"});
  std::filesystem::remove_all(scratch);

  for (const Metric& m : report.detail) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : report.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  if (args.trace) {
    const std::string spans =
        args.work_dir + "/spans-" + args.workload + ".jsonl";
    if (!tracer.WriteJsonl(spans)) {
      std::fprintf(stderr, "cannot write %s\n", spans.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer.size(), spans.c_str());
  }
  const auto& metrics = args.trace ? report.per_layer : report.end_to_end;
  if (metrics.empty() || report.attempted == 0) {
    std::fprintf(stderr, "the %s workload did not run\n",
                 args.workload.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    PrintMetric(stdout, metrics[i], i == 0);
  }
  std::printf("}}\n");
  return 0;
}
