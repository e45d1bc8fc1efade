// The four workloads. Each fills `report` with its end-to-end metrics, and
// with --trace 1 also the per-layer metrics (see README.md).
#pragma once

#include "host.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

// read_hot, feed and games_day: a dispatch::DispatcherCluster (dispatcher
// + 2 WAL-backed backends over loopback TCP).
void RunClusterWorkload(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report);

// recover: storage only, a 4-shard db::Database with group-commit WALs.
void RunRecoverWorkload(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report);

// Layer probes for a traced run whose workload leaves that tier idle: each
// appends the per-layer metrics of its tier to `report`.
void ProbeClusterLayers(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report);
void ProbeStorageLayers(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report);

}  // namespace perfbench
