// Host plumbing: CPU placement of the load against the server, peak
// resident set, precise sleeps, and the raw-socket HTTP client the load
// generator uses (independent of the program's own client).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

// CPUs the process may run on, split so the load generator's threads can
// pin themselves away from the server's: the last quarter (at least one
// CPU) goes to the load, the rest to the server. With a single CPU both
// sides share it.
struct CpuPlan {
  std::vector<int> server;
  std::vector<int> load;
  static CpuPlan Detect();
};

// Restricts the calling thread to `cpus`; threads it starts afterwards
// inherit the mask. No-op on an empty list.
void PinCurrentThread(const std::vector<int>& cpus);

// Sleeps to an absolute steady-clock time with 1 us timer slack.
void SleepUntilNs(int64_t t_ns);
void SetPreciseTimers();

// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

// Clock for RunOpenLoop.
struct SteadyClock {
  int64_t Now() const;
  void SleepUntil(int64_t t_ns) const { SleepUntilNs(t_ns); }
};

// One keep-alive HTTP/1.1 connection to 127.0.0.1:port. GET blocks until
// the whole response has arrived.
class RawHttpClient {
 public:
  explicit RawHttpClient(uint16_t port);
  ~RawHttpClient();

  RawHttpClient(const RawHttpClient&) = delete;
  RawHttpClient& operator=(const RawHttpClient&) = delete;

  // False on a connection or framing error (message in *error); a
  // non-200 status still returns true and shows in out->status.
  bool Get(const std::string& path, ParsedResponse* out, std::string* error);

 private:
  bool Connect(std::string* error);

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
