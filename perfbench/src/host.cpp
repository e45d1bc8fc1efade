#include "host.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

#include "trace.h"

namespace perfbench {

CpuPlan CpuPlan::Detect() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  CpuPlan plan;
  if (cpus.size() < 2) {
    plan.server = plan.load = cpus;
    return plan;
  }
  const size_t load = std::max<size_t>(1, cpus.size() / 4);
  plan.server.assign(cpus.begin(), cpus.end() - static_cast<std::ptrdiff_t>(load));
  plan.load.assign(cpus.end() - static_cast<std::ptrdiff_t>(load), cpus.end());
  return plan;
}

void PinCurrentThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void SetPreciseTimers() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void SleepUntilNs(int64_t t_ns) {
  timespec ts;
  ts.tv_sec = t_ns / 1'000'000'000;
  ts.tv_nsec = t_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

int64_t SteadyClock::Now() const { return NowNs(); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

RawHttpClient::RawHttpClient(uint16_t port) : port_(port) {}

RawHttpClient::~RawHttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool RawHttpClient::Connect(std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{10, 0};  // a wedged server fails the request, not the run
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  buffer_.clear();
  return true;
}

namespace {

// Case-insensitive header lookup inside the header block [0, end).
int64_t ContentLength(const std::string& head) {
  static constexpr char kName[] = "content-length:";
  const size_t n = sizeof(kName) - 1;
  size_t at = head.find("\r\n");
  while (at != std::string::npos && at + 2 < head.size()) {
    const size_t line = at + 2;
    bool match = head.size() >= line + n;
    for (size_t i = 0; match && i < n; ++i) {
      match = std::tolower(static_cast<unsigned char>(head[line + i])) == kName[i];
    }
    if (match) return std::strtoll(head.c_str() + line + n, nullptr, 10);
    at = head.find("\r\n", line);
  }
  return -1;
}

}  // namespace

bool RawHttpClient::Get(const std::string& path, ParsedResponse* out,
                        std::string* error) {
  if (fd_ < 0 && !Connect(error)) return false;
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  auto fill = [&]() -> bool {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *error = n == 0 ? "connection closed"
                      : std::string("recv: ") + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  };
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }
  const std::string head = buffer_.substr(0, head_end + 2);
  out->status = 0;
  if (head.size() > 12 && head.compare(0, 5, "HTTP/") == 0) {
    out->status = std::atoi(head.c_str() + head.find(' ') + 1);
  }
  out->content_length = ContentLength(head);
  const size_t body_start = head_end + 4;
  if (out->content_length < 0) {
    *error = "response without Content-Length";
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  const size_t want = body_start + static_cast<size_t>(out->content_length);
  while (buffer_.size() < want) {
    if (!fill()) return false;
  }
  out->body.assign(buffer_, body_start, want - body_start);
  // One request in flight per connection: anything past the declared
  // length is a framing error the response check reports.
  out->trailing_bytes = buffer_.size() - want;
  buffer_.clear();
  return true;
}

}  // namespace perfbench
