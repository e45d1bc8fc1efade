#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

struct LocalState {
  const Tracer* owner = nullptr;
  void* buffer = nullptr;
  ScopedSpan* current = nullptr;
};
thread_local LocalState tls;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer& Tracer::LocalBuffer() {
  if (tls.owner != this) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 16);
    tls.owner = this;
    tls.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(tls.buffer);
}

void Tracer::Record(const Span& span) {
  if (!enabled_) return;
  LocalBuffer().spans.push_back(span);
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                   static_cast<double>(s.end_ns - epoch_ns_) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
    : tracer_(tracer), on_(tracer.recording()), outer_(tls.current) {
  if (!on_) return;
  span_.name = name;
  span_.id = tracer.NextId();
  if (outer_ != nullptr) {
    span_.parent = outer_->span_.id;
    span_.request = request != 0 ? request : outer_->span_.request;
  } else {
    span_.request = request != 0 ? request : span_.id;
  }
  tls.current = this;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  tls.current = outer_;
  tracer_.Record(span_);
}

}  // namespace perfbench
