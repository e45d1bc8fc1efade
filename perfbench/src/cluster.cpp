// read_hot, feed and games_day against the deployable topology: a
// dispatch::DispatcherCluster with 2 WAL-backed backends over loopback TCP.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "checks.h"
#include "core/serving_site.h"
#include "dispatch/cluster.h"
#include "odg/dup.h"
#include "pagegen/olympic.h"
#include "stats.h"
#include "workload/feed.h"
#include "workload/sampler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nagano::Status;
using nagano::core::ServingSite;
using nagano::dispatch::DispatcherCluster;
using nagano::pagegen::OlympicSite;
using nagano::workload::FeedUpdate;
using nagano::workload::ResultFeed;

constexpr size_t kBackends = 2;
constexpr size_t kReadClients = 3;       // keep-alive connections
constexpr double kReadRate = 8000;       // open-loop reads per second
constexpr double kFeedRate = 200;        // open-loop commits per second
constexpr uint64_t kFeedBatch = 10'000;  // feed's closed-loop commits
constexpr double kOpenShare = 0.6;       // of --seconds; the rest is capacity
constexpr double kVisibleBoundMs = 60'000;  // the paper's freshness bound
constexpr size_t kPageDraws = 1 << 16;   // pre-sampled request pages
constexpr int64_t kPollNs = 50'000;      // visibility poll cadence
constexpr int64_t kTraceWindowNs = 100'000'000;  // traced/untraced A/B
constexpr uint64_t kFeedRequestBase = 1ULL << 40;
constexpr size_t kEventDayColumn = 3;  // events: id, sport_id, name, day, ...

// Thread-safe sink for counts and problems raised on load threads.
struct Outcome {
  std::mutex mutex;
  Report* report;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Problem(const std::string& what) {
    if (what.empty()) return;
    std::lock_guard lock(mutex);
    report->Problem(what);
  }
  void Fail(const std::string& what) {
    failed.fetch_add(1);
    Problem("operation failed: " + what);
  }
};

// Latency samples of one open-loop phase, with whether spans were being
// recorded when each operation started.
struct Samples {
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  std::vector<uint8_t> traced;

  void Append(const Samples& other) {
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                       other.lateness_us.end());
    traced.insert(traced.end(), other.traced.begin(), other.traced.end());
  }
};

// The traced run alternates windows with spans on and off, so the cost of
// recording shows as the difference between the two halves.
class TraceWindows {
 public:
  explicit TraceWindows(Tracer& tracer) : tracer_(tracer) {}
  ~TraceWindows() { Stop(); }
  void Start() {
    if (!tracer_.enabled()) return;
    thread_ = std::thread([this] {
      bool on = true;
      std::unique_lock lock(mutex_);
      while (!stop_) {
        tracer_.SetRecording(on);
        cv_.wait_for(lock, std::chrono::nanoseconds(kTraceWindowNs));
        on = !on;
      }
      tracer_.SetRecording(true);
    });
  }
  void Stop() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  Tracer& tracer_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// --- the topology -----------------------------------------------------------

class Harness {
 public:
  Harness(const Args& args, const std::string& wal_root) : seed_(args.seed) {
    nagano::dispatch::ClusterOptions options;
    options.backends = kBackends;
    options.wal_root = wal_root;
    options.metrics.instance = "bench";
    cluster_ = std::make_unique<DispatcherCluster>(std::move(options));
  }

  Status Start() {
    if (Status s = cluster_->Start(); !s.ok()) return s;
    const nagano::pagegen::OlympicConfig& config =
        site(0).olympic_config();
    // The games day readers are on: one that has events, chosen by seed.
    std::set<int64_t> event_days;
    for (const auto& row : site(0).db().ScanAll("events")) {
      event_days.insert(std::get<int64_t>(row[kEventDayColumn]));
    }
    if (event_days.empty()) return nagano::InternalError("no events");
    day_ = static_cast<int>(*std::next(
        event_days.begin(),
        static_cast<std::ptrdiff_t>(seed_ % event_days.size())));
    nagano::workload::PageSampler sampler(config, site(0).db());
    sampler.SetCurrentDay(day_);
    nagano::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 1);
    pages_.reserve(kPageDraws);
    for (size_t i = 0; i < kPageDraws; ++i) pages_.push_back(sampler.Sample(rng));
    return Status::Ok();
  }

  DispatcherCluster& cluster() { return *cluster_; }
  ServingSite& site(size_t i) { return *cluster_->site(i); }
  const std::vector<std::string>& pages() const { return pages_; }
  int day() const { return day_; }
  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  int day_ = 1;
  std::unique_ptr<DispatcherCluster> cluster_;
  std::vector<std::string> pages_;
};

// --- reads through the dispatcher -------------------------------------------

void ReadOne(RawHttpClient& client, const std::string& page, uint64_t request,
             Tracer& tracer, Outcome& outcome) {
  ParsedResponse response;
  std::string error;
  bool ok;
  {
    ScopedSpan span(tracer, "client.get", request);
    ok = client.Get(page, &response, &error);
  }
  outcome.attempted.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    outcome.Fail("GET " + page + ": " + error);
    return;
  }
  if (std::string bad = CheckResponse(response); !bad.empty()) {
    outcome.Problem("GET " + page + ": " + bad);
  }
}

// Open-loop reads at `rate` over [start, end) from kReadClients threads.
Samples OpenLoopReads(Harness& h, const CpuPlan& cpus, Tracer& tracer,
                      Outcome& outcome, int64_t start, int64_t end,
                      double rate) {
  const OpenLoopSchedule schedule{start, static_cast<int64_t>(1e9 / rate)};
  std::vector<Samples> per(kReadClients);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReadClients; ++t) {
    threads.emplace_back([&, t] {
      PinCurrentThread(cpus.load);
      SetPreciseTimers();
      RawHttpClient client(h.cluster().port());
      SteadyClock clock;
      Samples& mine = per[t];
      OpenLoopResult r = RunOpenLoop(
          schedule, t, kReadClients, end, clock, [&](uint64_t i) {
            mine.traced.push_back(tracer.recording());
            ReadOne(client, h.pages()[i % h.pages().size()], i + 1, tracer,
                    outcome);
          });
      mine.latency_us = std::move(r.latency_us);
      mine.lateness_us = std::move(r.lateness_us);
    });
  }
  for (auto& th : threads) th.join();
  Samples all;
  for (const Samples& s : per) all.Append(s);
  return all;
}

// Closed-loop reads until `end`; returns reads completed.
uint64_t ClosedLoopReads(Harness& h, const CpuPlan& cpus, Tracer& tracer,
                         Outcome& outcome, int64_t end, uint64_t first_id) {
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReadClients; ++t) {
    threads.emplace_back([&, t] {
      PinCurrentThread(cpus.load);
      RawHttpClient client(h.cluster().port());
      uint64_t n = 0;
      for (uint64_t i = t; NowNs() < end; i += kReadClients, ++n) {
        ReadOne(client, h.pages()[i % h.pages().size()], first_id + i, tracer,
                outcome);
      }
      done.fetch_add(n);
    });
  }
  for (auto& th : threads) th.join();
  return done.load();
}

// --- the scoring feed --------------------------------------------------------

// Replays ResultFeed schedules into every backend. Each result carries a
// unique score, so its arrival on a page is unambiguous. Every pass over
// the days replays the same schedule (a fresh ResultFeed with the run's
// seed): later passes correct the scores of the same (event, rank,
// athlete) slots rather than reassigning slots to other athletes.
class Feed {
 public:
  struct Applied {
    bool ok = true;
    std::string error;
    bool is_result = false;
    std::string page;   // the event page that must show the score
    std::string score;  // ScoreText of the committed score
    int64_t slot = 0;   // (event, rank) the score occupies
  };

  Feed(Harness& h, std::vector<int> days, Tracer& tracer)
      : h_(h), days_(std::move(days)), tracer_(tracer) {
    for (size_t b = 0; b < kBackends; ++b) {
      appliers_.push_back(std::make_unique<ResultFeed>(
          &h.site(b).db(), nagano::workload::FeedOptions{}, 0));
    }
  }

  Applied ApplyNext(uint64_t request) {
    while (queue_.empty()) {
      if (next_day_ % days_.size() == 0) {
        schedule_ = std::make_unique<ResultFeed>(
            &h_.site(0).db(), nagano::workload::FeedOptions{}, h_.seed());
      }
      auto day = schedule_->BuildDaySchedule(days_[next_day_++ % days_.size()]);
      queue_.insert(queue_.end(), day.begin(), day.end());
    }
    FeedUpdate u = std::move(queue_.front());
    queue_.pop_front();
    Applied out;
    if (u.kind == FeedUpdate::Kind::kResult) {
      u.score = 1000.0 + static_cast<double>(results_++) * 0.01;
      out.is_result = true;
      out.page = OlympicSite::EventPage(u.event_id);
      out.score = ScoreText(u.score);
      out.slot = u.event_id * 1000 + u.rank;
    }
    ScopedSpan span(tracer_, "feed.commit", kFeedRequestBase + request);
    for (size_t b = 0; b < kBackends; ++b) {
      ScopedSpan apply(tracer_, "db.apply");
      if (Status s = appliers_[b]->Apply(u); !s.ok()) {
        out.ok = false;
        out.error = s.ToString();
        return out;
      }
    }
    if (u.kind == FeedUpdate::Kind::kCompleteEvent) ++completions_;
    return out;
  }

  uint64_t completions() const { return completions_; }
  // Updates built but not yet applied.
  size_t queued() const { return queue_.size(); }

 private:
  Harness& h_;
  std::vector<int> days_;
  Tracer& tracer_;
  std::unique_ptr<ResultFeed> schedule_;
  std::vector<std::unique_ptr<ResultFeed>> appliers_;
  std::deque<FeedUpdate> queue_;
  size_t next_day_ = 0;
  uint64_t results_ = 0;
  uint64_t completions_ = 0;
};

// Scores committed but not yet shown by every backend's
// ServingSite::Serve of the event page.
class Visibility {
 public:
  explicit Visibility(Harness& h) : h_(h) {}

  // A timed score records due -> visible; it counts as shown by a backend
  // once the page carries it or any later score of the same slot (the page
  // can no longer show it after that). Untimed scores (the closed loop) are
  // settled per slot: the slot's latest score must show on every backend.
  void Add(const Feed::Applied& a, int64_t due, bool timed) {
    Slot& slot = slots_[a.slot];
    if (slot.pending == 0) slot.cells.clear();
    slot.cells.push_back("<td>" + a.score + "</td>");
    if (!timed) {
      if (slot.untimed_pending) return;
      slot.untimed_pending = true;
    }
    ++slot.pending;
    if (timed) ++timed_added_;
    pending_.push_back({a.page, a.slot, slot.cells.size() - 1, due, 0, timed});
  }

  void PollOnce() {
    for (auto it = pending_.begin(); it != pending_.end();) {
      Slot& slot = slots_[it->slot];
      // Untimed entries wait for the slot's latest score, which may have
      // moved since the last poll.
      const size_t from = it->timed ? it->first_cell : slot.cells.size() - 1;
      if (!it->timed) it->seen = 0;
      for (size_t b = 0; b < kBackends; ++b) {
        if (it->seen & (1u << b)) continue;
        const auto outcome = h_.site(b).Serve(it->page, /*include_body=*/true);
        for (size_t c = from; c < slot.cells.size(); ++c) {
          if (outcome.body.find(slot.cells[c]) != std::string::npos) {
            it->seen |= 1u << b;
            break;
          }
        }
      }
      if (it->seen == (1u << kBackends) - 1) {
        if (it->timed) {
          visible_ms_.push_back(static_cast<double>(NowNs() - it->due) / 1e6);
        } else {
          slot.untimed_pending = false;
        }
        --slot.pending;
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Polls until nothing is pending or the freshness bound has passed.
  void Drain() {
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(kVisibleBoundMs * 1e6);
    while (!pending_.empty() && NowNs() < deadline) {
      PollOnce();
      if (!pending_.empty()) SleepUntilNs(NowNs() + kPollNs);
    }
  }

  bool empty() const { return pending_.empty(); }
  size_t pending() const { return pending_.size(); }
  uint64_t timed_added() const { return timed_added_; }
  const std::vector<double>& visible_ms() const { return visible_ms_; }

 private:
  struct Slot {
    std::vector<std::string> cells;  // scores committed since the oldest pending
    size_t pending = 0;
    bool untimed_pending = false;
  };
  struct Pending {
    std::string page;
    int64_t slot = 0;
    size_t first_cell = 0;  // this score's index in the slot's cells
    int64_t due = 0;
    uint32_t seen = 0;  // bit b: backend b shows it
    bool timed = false;
  };
  Harness& h_;
  std::list<Pending> pending_;
  std::map<int64_t, Slot> slots_;
  std::vector<double> visible_ms_;
  uint64_t timed_added_ = 0;
};

struct FeedSamples {
  std::vector<double> commit_us;  // due -> committed on every backend
  std::vector<double> lateness_us;
  // Per update: time in ApplyNext, and whether spans were recorded.
  std::vector<double> service_us;
  std::vector<uint8_t> traced;
};

// Open-loop commits at `rate` over [start, end), polling visibility in the
// gaps. Drains outstanding visibility before returning.
FeedSamples OpenLoopFeed(Feed& feed, Visibility& vis, Tracer& tracer,
                         Outcome& outcome, int64_t start, int64_t end,
                         double rate) {
  FeedSamples out;
  const OpenLoopSchedule schedule{start, static_cast<int64_t>(1e9 / rate)};
  for (uint64_t i = 0; schedule.Due(i) < end; ++i) {
    const int64_t due = schedule.Due(i);
    while (NowNs() < due) {
      if (vis.empty()) {
        SleepUntilNs(due);
      } else {
        vis.PollOnce();
        SleepUntilNs(std::min(due, NowNs() + kPollNs));
      }
    }
    const int64_t sent = NowNs();
    out.lateness_us.push_back(static_cast<double>(sent - due) / 1e3);
    out.traced.push_back(tracer.recording());
    const Feed::Applied a = feed.ApplyNext(i);
    out.service_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
    outcome.attempted.fetch_add(1);
    if (!a.ok) {
      outcome.Fail("feed commit: " + a.error);
      continue;
    }
    out.commit_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    if (a.is_result) vis.Add(a, due, /*timed=*/true);
  }
  vis.Drain();
  return out;
}

// --- counters the per-layer metrics are derived from ------------------------

double SampleValue(const std::vector<nagano::metrics::Sample>& snapshot,
                   std::string_view name, std::string_view site) {
  for (const auto& s : snapshot) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.labels) {
      if (k == "site" && v == site) return s.value;
    }
  }
  return 0.0;
}

struct Counters {
  std::vector<uint64_t> backend_requests;
  uint64_t failovers = 0;
  double http_requests = 0, body_copies = 0;
  uint64_t hits = 0, misses = 0;
  double wal_fsyncs = 0, wal_bytes = 0, db_commits = 0;
  uint64_t changes = 0, batches = 0, plans_patched = 0, rerendered_bytes = 0;

  static Counters Take(Harness& h) {
    Counters c;
    for (const auto& b : h.cluster().dispatcher().snapshots()) {
      c.backend_requests.push_back(b.requests);
    }
    c.failovers = h.cluster().dispatcher().stats().failovers;
    const auto snap = nagano::metrics::MetricRegistry::Default().Snapshot();
    for (size_t b = 0; b < kBackends; ++b) {
      const std::string node = "bench/b" + std::to_string(b);
      c.http_requests +=
          SampleValue(snap, "nagano_http_requests_total", node + "-http");
      c.body_copies +=
          SampleValue(snap, "nagano_http_body_copies_total", node + "-http");
      const auto serve = h.site(b).page_server().stats();
      c.hits += serve.cache_hits;
      c.misses += serve.cache_misses;
    }
    // Update-path layers are read on backend 0; both apply the same feed.
    c.wal_fsyncs = SampleValue(snap, "nagano_wal_fsyncs_total", "bench/b0-wal");
    c.wal_bytes = SampleValue(snap, "nagano_wal_bytes_total", "bench/b0-wal");
    c.db_commits = SampleValue(snap, "nagano_db_commits_total", "bench/b0");
    const auto trig = h.site(0).trigger_monitor().stats();
    c.changes = trig.changes_processed;
    c.batches = trig.batches;
    c.plans_patched = trig.plans_patched;
    c.rerendered_bytes = trig.rerendered_bytes;
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void AddCounterMetrics(const Counters& a, const Counters& b, Report* r) {
  double total = 0, lowest = -1;
  for (size_t i = 0; i < b.backend_requests.size(); ++i) {
    const double d =
        static_cast<double>(b.backend_requests[i] - a.backend_requests[i]);
    total += d;
    lowest = lowest < 0 ? d : std::min(lowest, d);
  }
  const double fair = total / static_cast<double>(b.backend_requests.size());
  const double commits = b.db_commits - a.db_commits;
  auto& L = r->per_layer;
  L.push_back({"dispatch.balance", Ratio(lowest, fair), "ratio"});
  L.push_back({"dispatch.failovers",
               static_cast<double>(b.failovers - a.failovers), "count"});
  L.push_back({"http.body_copies_per_req",
               Ratio(b.body_copies - a.body_copies,
                     b.http_requests - a.http_requests),
               "count"});
  L.push_back({"server.hit_ratio",
               Ratio(static_cast<double>(b.hits - a.hits),
                     static_cast<double>(b.hits - a.hits + b.misses - a.misses)),
               "ratio"});
  L.push_back({"wal.fsyncs_per_commit", Ratio(b.wal_fsyncs - a.wal_fsyncs, commits),
               "count"});
  L.push_back({"wal.bytes_per_commit", Ratio(b.wal_bytes - a.wal_bytes, commits),
               "bytes"});
  L.push_back({"trigger.changes_per_batch",
               Ratio(static_cast<double>(b.changes - a.changes),
                     static_cast<double>(b.batches - a.batches)),
               "count"});
  L.push_back({"pagegen.rerendered_bytes_per_commit",
               Ratio(static_cast<double>(b.rerendered_bytes - a.rerendered_bytes),
                     commits),
               "bytes"});
  L.push_back({"trigger.plans_patched_per_commit",
               Ratio(static_cast<double>(b.plans_patched - a.plans_patched),
                     commits),
               "count"});
}

// --- layer probes (traced runs) ---------------------------------------------

double MedianSpanUs(Tracer& tracer, const char* name) {
  return Median(tracer.DurationsUs(name));
}

// Times each layer's public function in isolation, on the live cluster.
void ProbeLayersHere(Harness& h, Tracer& tracer, Outcome& outcome) {
  tracer.SetRecording(true);
  Report* r = outcome.report;
  // Read path: the same page via the dispatcher, direct to a backend, and
  // in-process; then the cache lookup alone.
  {
    RawHttpClient via(h.cluster().port());
    RawHttpClient direct(h.cluster().backend_port(0));
    ParsedResponse response;
    std::string error;
    for (size_t i = 0; i < 4000; ++i) {
      const std::string& page = h.pages()[i % h.pages().size()];
      bool ok;
      {
        ScopedSpan span(tracer, "probe.dispatch_get");
        ok = via.Get(page, &response, &error);
      }
      {
        ScopedSpan span(tracer, "probe.backend_get");
        ok = direct.Get(page, &response, &error) && ok;
      }
      {
        ScopedSpan span(tracer, "server.serve");
        (void)h.site(0).Serve(page);
      }
      {
        ScopedSpan span(tracer, "cache.lookup");
        (void)h.site(0).cache().Lookup(page);
      }
      outcome.attempted.fetch_add(2);
      if (!ok) outcome.Fail("probe GET " + page + ": " + error);
    }
  }
  const double via = MedianSpanUs(tracer, "probe.dispatch_get");
  const double direct = MedianSpanUs(tracer, "probe.backend_get");
  const double serve = MedianSpanUs(tracer, "server.serve");
  r->per_layer.push_back({"dispatch.hop_us", via - direct, "us"});
  r->per_layer.push_back({"http.self_us", direct - serve, "us"});
  r->per_layer.push_back({"server.serve_us", serve, "us"});
  r->per_layer.push_back(
      {"cache.lookup_us", MedianSpanUs(tracer, "cache.lookup"), "us"});

  // Update path, one commit at a time: commit on backend 0 and its
  // propagation to the cache (then the same commit on backend 1, keeping
  // the replicas equal), and the DUP closure and re-render work that
  // commit implies.
  ServingSite& s0 = h.site(0);
  const int64_t event_id = 1 + static_cast<int64_t>(h.seed() % 70);
  std::vector<double> affected_counts;
  for (int i = 0; i < 40; ++i) {
    const double score = 900.0 + i * 0.01;
    const nagano::db::ChangeCursor before = s0.db().AppliedCursor();
    Status st;
    {
      ScopedSpan span(tracer, "db.record_result");
      st = s0.RecordResult(event_id, 1 + i % 3, 1 + i % 5, score);
    }
    if (st.ok()) {
      ScopedSpan span(tracer, "trigger.quiesce");
      s0.Quiesce();
    }
    if (st.ok()) st = h.site(1).RecordResult(event_id, 1 + i % 3, 1 + i % 5, score);
    outcome.attempted.fetch_add(1);
    if (!st.ok()) {
      outcome.Fail("probe commit: " + st.ToString());
      continue;
    }
    h.site(1).Quiesce();
    auto batch = s0.db().ReadChanges(before);
    if (!batch.ok()) {
      outcome.Fail("probe ReadChanges: " + batch.status().ToString());
      continue;
    }
    std::vector<nagano::odg::NodeId> changed;
    for (const auto& rec : batch.value().records) {
      for (const std::string& name :
           OlympicSite::MapChangeToDataNodes(rec, s0.db())) {
        const auto id = s0.graph().Find(name);
        if (id != nagano::odg::kInvalidNode) changed.push_back(id);
      }
    }
    nagano::odg::DupResult dup;
    {
      ScopedSpan span(tracer, "odg.dup");
      dup = nagano::odg::DupEngine::ComputeAffected(s0.graph(), changed);
    }
    affected_counts.push_back(static_cast<double>(dup.affected.size()));
    for (const auto& object : dup.affected) {
      const std::string name(s0.graph().name(object.id));
      ScopedSpan span(tracer, "pagegen.render");
      (void)s0.renderer().RenderOnly(name);
    }
  }
  r->per_layer.push_back(
      {"db.commit_us", MedianSpanUs(tracer, "db.record_result"), "us"});
  r->per_layer.push_back(
      {"trigger.propagate_us", MedianSpanUs(tracer, "trigger.quiesce"), "us"});
  r->per_layer.push_back({"odg.dup_us", MedianSpanUs(tracer, "odg.dup"), "us"});
  r->per_layer.push_back(
      {"odg.affected_per_commit", Median(affected_counts), "count"});
  r->per_layer.push_back(
      {"pagegen.render_us", MedianSpanUs(tracer, "pagegen.render"), "us"});

  // Set-up cost on one extra site (no WAL, no front end).
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<ServingSite> extra;
    {
      ScopedSpan span(tracer, "core.create");
      auto created = ServingSite::Create(nagano::core::SiteOptions{});
      if (!created.ok()) {
        outcome.Fail("probe Create: " + created.status().ToString());
        return;
      }
      extra = std::move(created.value());
    }
    ScopedSpan span(tracer, "core.prefetch");
    if (auto p = extra->PrefetchAll(); !p.ok()) {
      outcome.Fail("probe PrefetchAll: " + p.status().ToString());
    }
  }
  r->per_layer.push_back(
      {"core.create_ms", MedianSpanUs(tracer, "core.create") / 1e3, "ms"});
  r->per_layer.push_back(
      {"core.prefetch_ms", MedianSpanUs(tracer, "core.prefetch") / 1e3, "ms"});
}

// Runs the probes from a load CPU, like any other client of the cluster: a
// server thread woken by a probe's call cannot then preempt the probe and
// hide its own time inside the probe's span.
void ProbeLayers(Harness& h, const CpuPlan& cpus, Tracer& tracer,
                 Outcome& outcome) {
  std::thread prober([&] {
    PinCurrentThread(cpus.load);
    ProbeLayersHere(h, tracer, outcome);
  });
  prober.join();
}

// --- end-of-run checks --------------------------------------------------------

// Every sampled event page shows, through the dispatcher, what the
// benchmark reads for it from backend 0's database; both backends serve
// every sampled page byte-identically over HTTP.
void CheckReadContent(Harness& h, Outcome& outcome) {
  const std::set<std::string> distinct(h.pages().begin(), h.pages().end());
  RawHttpClient via(h.cluster().port());
  std::vector<std::unique_ptr<RawHttpClient>> direct;
  for (size_t b = 0; b < kBackends; ++b) {
    direct.push_back(
        std::make_unique<RawHttpClient>(h.cluster().backend_port(b)));
  }
  std::vector<std::map<std::string, std::string>> replicas(kBackends);
  const nagano::db::Database& db = h.site(0).db();
  size_t event_pages = 0;
  for (const std::string& page : distinct) {
    ParsedResponse response;
    std::string error;
    for (size_t b = 0; b < kBackends; ++b) {
      if (!direct[b]->Get(page, &response, &error)) {
        outcome.Problem("direct GET " + page + ": " + error);
        return;
      }
      replicas[b][page] = response.body;
    }
    // Event pages of every language: "/event/<id>", "/ja/event/<id>".
    const size_t at = page.find("/event/");
    if (at == std::string::npos) continue;
    const int64_t id = std::stoll(page.substr(at + 7));
    auto event = db.Get("events", nagano::db::Value(id));
    if (!event.ok()) {
      outcome.Problem(page + ": no event row");
      continue;
    }
    std::vector<ExpectedEventRow> rows;
    for (const auto& row :
         db.Lookup("results", "event_id", nagano::db::Value(id))) {
      const int64_t athlete = std::get<int64_t>(row[3]);
      auto a = db.Get("athletes", nagano::db::Value(athlete));
      rows.push_back({ScoreText(std::get<double>(row[4])),
                      a.ok() ? std::get<std::string>(a.value()[1]) : "?"});
    }
    if (!via.Get(page, &response, &error)) {
      outcome.Problem("GET " + page + ": " + error);
      continue;
    }
    outcome.Problem(CheckEventPage(page, response.body,
                                   std::get<std::string>(event.value()[2]),
                                   rows));
    ++event_pages;
  }
  outcome.Problem(CheckReplicasIdentical(replicas[0], replicas[1]));
  if (event_pages == 0) outcome.Problem("no event page was sampled");
}

// After the feed: caches equal a fresh render (the DUP invariant), the
// medal table conserves medals, and the replicas agree on every page.
void CheckFeedState(Harness& h, uint64_t completions, Outcome& outcome) {
  h.cluster().QuiesceAll();
  std::vector<std::map<std::string, std::string>> replicas(kBackends);
  const auto pages = OlympicSite::AllPageNames(h.site(0).olympic_config(),
                                               h.site(0).db());
  for (size_t b = 0; b < kBackends; ++b) {
    ServingSite& site = h.site(b);
    if (auto v = site.VerifyCacheConsistency(); !v.ok()) {
      outcome.Problem("backend " + std::to_string(b) +
                      " cache inconsistent: " + v.status().ToString());
    }
    outcome.Problem(CheckMedals(
        site.Serve(OlympicSite::MedalsPage(), true).body, completions));
    for (const std::string& page : pages) {
      replicas[b][page] = site.Serve(page, true).body;
    }
  }
  outcome.Problem(CheckReplicasIdentical(replicas[0], replicas[1]));
}

// Commits one day's whole schedule so event pages carry scores to check.
void PreloadDay(Harness& h, Tracer& tracer, Outcome& outcome) {
  Feed feed(h, {h.day()}, tracer);
  uint64_t i = 0;
  do {
    if (auto a = feed.ApplyNext(i++); !a.ok) outcome.Problem("preload: " + a.error);
  } while (feed.queued() > 0);
  h.cluster().QuiesceAll();
}

}  // namespace

void RunClusterWorkload(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report) {
  Outcome outcome;
  outcome.report = report;
  PinCurrentThread(cpus.server);  // server threads inherit this mask
  SetPreciseTimers();
  Harness h(args, args.work_dir + "/wal");
  if (Status s = h.Start(); !s.ok()) {
    report->Problem("cluster start: " + s.ToString());
    return;
  }
  const double setup_s =
      static_cast<double>(NowNs() - args.process_start_ns) / 1e9;

  const bool reads = args.workload != "feed";
  const bool feeds = args.workload != "read_hot";
  if (args.workload == "read_hot") PreloadDay(h, tracer, outcome);

  // Warm the keep-alive connections and the dispatcher's leases.
  if (reads) {
    ClosedLoopReads(h, cpus, tracer, outcome, NowNs() + 300'000'000, 1ULL << 36);
  }
  outcome.attempted = 0;

  const int64_t total_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t t0 = NowNs() + 10'000'000;
  const int64_t t_open_end = t0 + static_cast<int64_t>(total_ns * kOpenShare);
  const int64_t t_end = t0 + total_ns;

  std::vector<int> feed_days;
  if (args.workload == "games_day") {
    feed_days = {h.day()};
  } else {
    for (int d = 1; d <= h.site(0).olympic_config().days; ++d) {
      feed_days.push_back(d);
    }
  }
  Feed feed(h, feed_days, tracer);
  Visibility vis(h);
  FeedSamples feed_samples;
  double feed_cps = 0;

  const Counters before = Counters::Take(h);
  TraceWindows windows(tracer);
  windows.Start();

  // games_day commits open-loop for the whole run. feed commits open-loop
  // for the open phase, then a fixed batch flat out, timed until every
  // score shows (fixed work, so memory does not grow with speed).
  std::thread feeder;
  if (feeds) {
    feeder = std::thread([&] {
      PinCurrentThread(cpus.load);
      SetPreciseTimers();
      feed_samples = OpenLoopFeed(feed, vis, tracer, outcome, t0,
                                  reads ? t_end : t_open_end, kFeedRate);
      if (reads) return;
      const int64_t c0 = NowNs();
      const int64_t cap = c0 + 3 * (t_end - t_open_end);
      uint64_t n = 0;
      for (; n < kFeedBatch && NowNs() < cap; ++n) {
        const Feed::Applied a = feed.ApplyNext(kFeedBatch + n);
        outcome.attempted.fetch_add(1);
        if (!a.ok) {
          outcome.Fail("feed commit: " + a.error);
        } else if (a.is_result) {
          vis.Add(a, 0, /*timed=*/false);
        }
      }
      vis.Drain();
      feed_cps = static_cast<double>(n) /
                 (static_cast<double>(NowNs() - c0) / 1e9);
    });
  }
  Samples read_samples;
  double read_capacity = 0;
  if (reads) {
    read_samples =
        OpenLoopReads(h, cpus, tracer, outcome, t0, t_open_end, kReadRate);
    const int64_t c0 = NowNs();
    const uint64_t n =
        ClosedLoopReads(h, cpus, tracer, outcome, t_end, 1ULL << 32);
    read_capacity =
        static_cast<double>(n) / (static_cast<double>(NowNs() - c0) / 1e9);
  }
  if (feeder.joinable()) feeder.join();
  windows.Stop();
  const Counters after = Counters::Take(h);

  // --- checks
  if (!vis.empty()) {
    outcome.Problem(std::to_string(vis.pending()) +
                    " scores not visible on every backend within 60 s");
  }
  if (feeds) {
    outcome.Problem(CheckVisibleWithin(vis.visible_ms(), vis.timed_added(),
                                       kVisibleBoundMs));
    CheckFeedState(h, feed.completions(), outcome);
  }
  if (reads) CheckReadContent(h, outcome);

  // --- metrics: latencies and rates are printed for reading; the gated
  // set is set-up time and memory (see README.md for why).
  Report* r = report;
  const std::vector<double>& read_us = read_samples.latency_us;
  const std::vector<double>& visible_ms = vis.visible_ms();
  r->end_to_end.push_back({"setup_s", setup_s, "s"});
  if (reads) {
    r->detail.push_back({"read_p50_ms", Median(read_us) / 1e3, "ms"});
    r->detail.push_back({"read_p99_ms", Percentile(read_us, 0.99) / 1e3, "ms"});
    r->detail.push_back({"read_capacity_rps", read_capacity, "1/s"});
    r->detail.push_back(
        {"open_loop_reads", static_cast<double>(read_us.size()), "count"});
    r->detail.push_back({"read_lateness_p99_us",
                         Percentile(read_samples.lateness_us, 0.99), "us"});
  }
  if (feeds) {
    r->detail.push_back(
        {"commit_p50_ms", Median(feed_samples.commit_us) / 1e3, "ms"});
    r->detail.push_back({"visible_p50_ms", Median(visible_ms), "ms"});
    r->detail.push_back({"visible_p99_ms", Percentile(visible_ms, 0.99), "ms"});
    r->detail.push_back(
        {"visible_samples", static_cast<double>(visible_ms.size()), "count"});
    r->detail.push_back({"feed_lateness_p99_us",
                         Percentile(feed_samples.lateness_us, 0.99), "us"});
    if (!reads) r->detail.push_back({"feed_capacity_cps", feed_cps, "1/s"});
  }

  if (args.trace) {
    AddCounterMetrics(before, after, r);
    ProbeLayers(h, cpus, tracer, outcome);
    std::vector<double> read_service_us;
    for (size_t i = 0; i < read_us.size(); ++i) {
      read_service_us.push_back(read_us[i] - read_samples.lateness_us[i]);
    }
    r->per_layer.push_back(
        {"trace.overhead_pct",
         reads ? OverheadPct(read_service_us, read_samples.traced)
               : OverheadPct(feed_samples.service_us, feed_samples.traced),
         "%"});
  }
  report->attempted += outcome.attempted.load();
  report->failed += outcome.failed.load();
  h.cluster().Stop();
}

void ProbeClusterLayers(const Args& args, const CpuPlan& cpus, Tracer& tracer,
                        Report* report) {
  Outcome outcome;
  outcome.report = report;
  PinCurrentThread(cpus.server);
  Harness h(args, args.work_dir + "/probe-wal");
  if (Status s = h.Start(); !s.ok()) {
    report->Problem("probe cluster start: " + s.ToString());
    return;
  }
  const Counters before = Counters::Take(h);
  ProbeLayers(h, cpus, tracer, outcome);
  AddCounterMetrics(before, Counters::Take(h), report);
  h.cluster().Stop();
  report->attempted += outcome.attempted.load();
  report->failed += outcome.failed.load();
}

}  // namespace perfbench
