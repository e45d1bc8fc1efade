// recover: commits into a 4-shard db::Database with group-commit shard WAL
// streams from several committer threads, then times repeated
// Database::Recover of that log.
#include <filesystem>
#include <map>
#include <thread>

#include "checks.h"
#include "db/database.h"
#include "pagegen/olympic.h"
#include "stats.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nagano::Status;
using nagano::db::Database;
using nagano::db::Row;
using nagano::db::Value;

constexpr size_t kShards = 4;
constexpr size_t kCommits = 60'000;       // recover workload
constexpr size_t kProbeCommits = 20'000;  // storage probe in traced runs
constexpr int64_t kProbeMeasureNs = 2'000'000'000;

struct StorageRun {
  double setup_s = 0;
  double commit_rps = 0;
  std::vector<double> upsert_us;
  std::vector<double> recover_ms;  // default (parallel) recovery
  std::vector<uint8_t> traced;     // spans on during that recovery
  std::vector<double> serial_ms;   // recovery_threads = 1 (traced runs)
  std::vector<double> shard_max_ms;
  double replayed = 0;
};

nagano::wal::WalOptions WalOptionsAt(const std::string& dir) {
  nagano::wal::WalOptions options;
  options.dir = dir;
  options.sync_policy = nagano::wal::SyncPolicy::kGroupCommit;
  options.metrics.instance = "bench/store-wal";
  return options;
}

std::unique_ptr<Database> OpenDatabase(const nagano::wal::ShardWalSet& wals,
                                       size_t recovery_threads) {
  nagano::db::DatabaseOptions options;
  options.shards = kShards;
  options.shard_wals = wals.pointers();
  options.recovery_threads = recovery_threads;
  options.metrics.instance = "bench/store";
  return std::make_unique<Database>(std::move(options));
}

// The committer's rows: key "c<thread>:<n>", values from the seed. Each
// thread owns its keys, so its own map is the exact last-written state.
Row MakeRow(nagano::Rng& rng, size_t thread, size_t key) {
  return Row{Value("c" + std::to_string(thread) + ":" + std::to_string(key)),
             Value(static_cast<int64_t>(1 + rng.NextBelow(70))),
             Value(static_cast<int64_t>(1 + rng.NextBelow(12))),
             Value(static_cast<int64_t>(1 + rng.NextBelow(840))),
             Value(static_cast<double>(rng.NextBelow(100000)) / 100.0)};
}

// `commits` upserts (half as many distinct keys) from one committer per
// CPU, then recoveries of the log until `measure_ns` after the first commit
// (at least three).
StorageRun RunStorage(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                      Report* report, size_t commits, int64_t measure_ns,
                      bool with_serial) {
  StorageRun run;
  const std::string dir = args.work_dir + "/store";
  std::filesystem::remove_all(dir);
  std::vector<int> all = cpus.server;
  all.insert(all.end(), cpus.load.begin(), cpus.load.end());
  PinCurrentThread(all);

  auto wals = nagano::wal::OpenShardWals(WalOptionsAt(dir), kShards);
  if (!wals.ok()) {
    report->Problem("open shard WALs: " + wals.status().ToString());
    return run;
  }
  auto db = OpenDatabase(wals.value(), 0);
  const nagano::pagegen::OlympicConfig config;
  if (Status s = nagano::pagegen::OlympicSite::Build(config, db.get());
      !s.ok()) {
    report->Problem("build: " + s.ToString());
    return run;
  }
  const uint64_t built = db->LastSeqno();
  run.setup_s = static_cast<double>(NowNs() - args.process_start_ns) / 1e9;

  // --- commits
  const size_t committers = std::max<size_t>(1, std::min<size_t>(4, all.size()));
  const size_t per_thread = commits / committers;
  const size_t keys_per_thread = std::max<size_t>(1, per_thread / 2);
  std::vector<std::map<std::string, Row>> written(committers);
  std::vector<std::vector<double>> upsert_us(committers);
  std::atomic<uint64_t> failed{0};
  const int64_t c0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < committers; ++t) {
      threads.emplace_back([&, t] {
        if (!all.empty()) PinCurrentThread({all[t % all.size()]});
        nagano::Rng rng(args.seed * 1000003 + t);
        upsert_us[t].reserve(per_thread);
        for (size_t n = 0; n < per_thread; ++n) {
          Row row = MakeRow(rng, t, n % keys_per_thread);
          const std::string key = std::get<std::string>(row[0]);
          const int64_t s0 = NowNs();
          Status s;
          {
            ScopedSpan span(tracer, "db.upsert");
            s = db->Upsert("results", row);
          }
          upsert_us[t].push_back(static_cast<double>(NowNs() - s0) / 1e3);
          if (!s.ok()) {
            failed.fetch_add(1);
            continue;
          }
          written[t][key] = std::move(row);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  if (Status s = db->Sync(); !s.ok()) report->Problem("sync: " + s.ToString());
  run.commit_rps = static_cast<double>(per_thread * committers) /
                   (static_cast<double>(NowNs() - c0) / 1e9);
  report->attempted += per_thread * committers;
  report->failed += failed.load();
  if (failed.load() > 0) report->Problem("storage commits failed");
  for (auto& v : upsert_us) {
    run.upsert_us.insert(run.upsert_us.end(), v.begin(), v.end());
  }
  std::map<std::string, Row> expected;
  for (auto& m : written) expected.merge(m);
  const uint64_t commits_made = built + per_thread * committers - failed.load();
  db.reset();
  wals.value().wals.clear();

  // --- recoveries
  const int64_t until = c0 + measure_ns;
  for (size_t i = 0; NowNs() < until || i < 3; ++i) {
    const bool serial = with_serial && i % 2 == 1;
    auto reopened = nagano::wal::OpenShardWals(WalOptionsAt(dir), kShards);
    if (!reopened.ok()) {
      report->Problem("reopen shard WALs: " + reopened.status().ToString());
      return run;
    }
    auto recovered = OpenDatabase(reopened.value(), serial ? 1 : 0);
    // Traced runs record spans on every other pair of recoveries, so the
    // cost of recording shows against the recoveries without.
    if (tracer.enabled()) tracer.SetRecording((i / 2) % 2 == 0);
    const bool traced = tracer.recording();
    const int64_t r0 = NowNs();
    Status s;
    {
      ScopedSpan span(tracer, serial ? "db.recover_serial" : "db.recover");
      s = recovered->Recover();
    }
    const double ms = static_cast<double>(NowNs() - r0) / 1e6;
    ++report->attempted;
    const auto& rep = recovered->last_recovery();
    uint64_t replayed = 0;
    double shard_max = 0;
    for (const auto& shard : rep.shards) {
      replayed += shard.replayed;
      shard_max = std::max(shard_max, shard.replay_ms);
    }
    if (!s.ok() || !rep.healthy() || rep.missing_records != 0) {
      ++report->failed;
      report->Problem("recover: " + (s.ok() ? std::string("unhealthy report")
                                            : s.ToString()));
      continue;
    }
    if (replayed != commits_made) {
      report->Problem("recover replayed " + std::to_string(replayed) +
                      " records for " + std::to_string(commits_made) +
                      " commits");
    }
    if (i == 0) {
      report->Problem(
          CheckRecoveredRows(expected, recovered->ScanAll("results"), 0));
    }
    run.replayed = static_cast<double>(replayed);
    if (serial) {
      run.serial_ms.push_back(ms);
    } else {
      run.recover_ms.push_back(ms);
      run.traced.push_back(traced);
      run.shard_max_ms.push_back(shard_max);
    }
  }
  tracer.SetRecording(true);
  std::filesystem::remove_all(dir);
  return run;
}

void AddStorageLayers(const StorageRun& run, Report* report) {
  const double parallel = Median(run.recover_ms);
  const double serial = Median(run.serial_ms);
  const double shard_max = Median(run.shard_max_ms);
  auto& L = report->per_layer;
  L.push_back({"db.shard_commit_us", Median(run.upsert_us), "us"});
  L.push_back({"recover.serial_ms", serial, "ms"});
  L.push_back({"recover.parallel_speedup", parallel > 0 ? serial / parallel : 0,
               "ratio"});
  L.push_back({"recover.shard_ms_max", shard_max, "ms"});
  L.push_back({"recover.merge_ms", parallel - shard_max, "ms"});
  L.push_back({"wal.replay_records_per_s",
               parallel > 0 ? run.replayed / (parallel / 1e3) : 0, "1/s"});
}

}  // namespace

void RunRecoverWorkload(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report) {
  // The commit phase runs to its fixed count; recoveries fill the rest.
  const StorageRun run =
      RunStorage(args, cpus, tracer, report, kCommits,
                 static_cast<int64_t>(args.seconds * 1e9), args.trace);
  if (run.recover_ms.empty()) return;
  report->end_to_end.push_back({"setup_s", run.setup_s, "s"});
  report->detail.push_back({"commit_rps", run.commit_rps, "1/s"});
  report->detail.push_back({"recover_ms", Median(run.recover_ms), "ms"});
  report->detail.push_back(
      {"recover_p90_ms", Percentile(run.recover_ms, 0.9), "ms"});
  report->detail.push_back(
      {"recoveries", static_cast<double>(run.recover_ms.size()), "count"});
  if (args.trace) {
    AddStorageLayers(run, report);
    report->per_layer.push_back(
        {"trace.overhead_pct", OverheadPct(run.recover_ms, run.traced), "%"});
  }
}

void ProbeStorageLayers(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report) {
  Report scratch;
  const StorageRun run = RunStorage(args, cpus, tracer, &scratch,
                                    kProbeCommits, kProbeMeasureNs, true);
  for (const std::string& p : scratch.problems) report->Problem("probe: " + p);
  report->attempted += scratch.attempted;
  report->failed += scratch.failed;
  AddStorageLayers(run, report);
}

}  // namespace perfbench
