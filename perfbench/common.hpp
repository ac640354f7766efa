// Shared pieces of the perfbench driver: arguments, clocks, the
// benchmark's own CRC32C and payload generator, percentiles, span
// accounting for the traced runs, and the JSON result line.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int port = 0;
  std::vector<int> cpus;  // CPUs for the load threads, in order
};

/// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic()
/// reads, so run.py can put set-up time on one axis with this process.
inline double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(&s);
}

/// Reflected CRC32C (Castagnoli, polynomial 0x82F63B78), one bit at a
/// time: deliberately independent of the program's table-driven code.
inline std::uint32_t crc32c_bitwise(const std::uint8_t* data,
                                    std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

inline bool crc32c_bitwise_selftest() {
  const char* v = "123456789";
  return crc32c_bitwise(reinterpret_cast<const std::uint8_t*>(v), 9) ==
         0xE3069283u;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  rank = std::clamp<std::size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(&v, 0.5); }

/// Latency samples of a measured phase. Percentiles are nearest-rank
/// over all of them, so a tail confined to a few rounds still counts.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t count() const { return v_.size(); }
  double percentile(double q) const {
    std::vector<double> v = v_;
    return perfbench::percentile(&v, q);
  }

 private:
  std::vector<double> v_;
};

/// Throughput of the program's crc32c in GiB/s, at `object_bytes` per
/// call over about 256 MiB, cycling through the `count` objects laid
/// out back to back at `data`.
inline double crc32c_gib_s(const std::uint8_t* data, std::size_t count,
                           std::size_t object_bytes) {
  const std::size_t reps =
      std::max<std::size_t>(1, (std::size_t{256} << 20) / object_bytes);
  std::uint32_t sink = 0;
  const double t0 = mono_now();
  for (std::size_t i = 0; i < reps; ++i) {
    sink ^= corec::crc32c(data + (i % count) * object_bytes, object_bytes);
  }
  const double s = mono_now() - t0;
  if (sink == 0x12345678u) std::fputc(' ', stderr);  // keep the work
  return static_cast<double>(reps * object_bytes) / s /
         static_cast<double>(1ull << 30);
}

/// Pins the calling thread to `cpu`; a no-op for a negative `cpu`.
inline void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Span accounting for the traced runs: a stack of open spans, each
/// charged its own duration; a closing span also charges its parent's
/// child time, so self time = total - children.
class Spans {
 public:
  bool enabled = true;  // spans opened while false are not recorded

  void enter() { stack_.push_back({mono_now(), 0.0}); }

  void exit(const std::string& name) {
    const Open open = stack_.back();
    stack_.pop_back();
    const double dur = mono_now() - open.start;
    Total& t = totals_[name];
    t.self_s += dur - open.child_s;
    t.calls += 1;
    if (!stack_.empty()) stack_.back().child_s += dur;
  }

  double self_s(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.self_s;
  }
  std::uint64_t calls(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.calls;
  }

 private:
  struct Open {
    double start;
    double child_s;
  };
  struct Total {
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };
  std::vector<Open> stack_;
  std::map<std::string, Total> totals_;
};

/// RAII span: enter on construction, exit on destruction.
class Span {
 public:
  Span(Spans* spans, const char* name)
      : spans_(spans != nullptr && spans->enabled ? spans : nullptr),
        name_(name) {
    if (spans_ != nullptr) spans_->enter();
  }
  ~Span() {
    if (spans_ != nullptr) spans_->exit(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  const char* name_;
};

/// What one workload hands back to main(): the JSON fields run.py
/// completes (set-up time, server RSS) and prints.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests_sent = 0;  // served workloads: frames sent
  double measure_start = 0.0;       // mono_now() when timing began
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> problems;  // failed output checks

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (problems.size() < 20) problems.push_back(what);
    }
  }
  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

int run_served(const Args& args, Result* result);
int run_s3d(const Args& args, Result* result);

}  // namespace perfbench
