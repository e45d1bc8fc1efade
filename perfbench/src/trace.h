// Spans recorded by the benchmark around its own calls into each layer's
// public functions. Spans live in per-thread buffers in memory and are
// written out once, when the run ends. Nothing inside the program is
// instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();  // steady clock

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request
};

class Tracer {
 public:
  // A tracer built with enabled = false records nothing (the untraced run).
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Recording can be switched off for stretches of a traced run, so the
  // run can compare the same operations with and without spans.
  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const {
    return enabled_ && recording_.load(std::memory_order_relaxed);
  }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  // Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const char* name) const;
  size_t size() const;

  // One JSON object per line: name, start_us, end_us (from the tracer's
  // epoch), id, parent, request.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& LocalBuffer();

  const bool enabled_;
  std::atomic<bool> recording_{true};
  std::atomic<uint64_t> next_id_{1};
  const int64_t epoch_ns_ = NowNs();
  mutable std::mutex mutex_;  // guards buffers_ (registration and reads)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records one span from construction to destruction when the tracer is
// recording. Nested ScopedSpans on one thread become parent and child.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  bool on_;
  Span span_;
  ScopedSpan* outer_;
};

}  // namespace perfbench
