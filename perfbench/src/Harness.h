//===-- perfbench/src/Harness.h - Timing, spans and results ----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the benchmark: host clocks, latency samples with
/// the one percentile rule every metric uses, the in-memory span log of
/// the traced run, the metric catalogue BENCHMARK.json mirrors, and the
/// result a workload fills in.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_PERFBENCH_HARNESS_H
#define ECAS_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

/// Quantile level the tail metrics report for \p N samples: \p Cap when at
/// least ten samples rank strictly above its interpolation position,
/// otherwise the highest order statistic that still has ten samples
/// above it. NaN below eleven samples, where no level qualifies.
double tailLevel(size_t N, double Cap = 0.99);

/// Allocator that takes memory straight from mmap, bypassing malloc, so
/// the benchmark's own sample buffers stay out of liveHeapMb().
template <class T> struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <class U> PageAllocator(const PageAllocator<U> &) {}
  T *allocate(size_t N);
  void deallocate(T *P, size_t N);
  template <class U> bool operator==(const PageAllocator<U> &) const {
    return true;
  }
};

void *mapPages(size_t Bytes);
void unmapPages(void *P, size_t Bytes);

template <class T> T *PageAllocator<T>::allocate(size_t N) {
  return static_cast<T *>(mapPages(N * sizeof(T)));
}

template <class T> void PageAllocator<T>::deallocate(T *P, size_t N) {
  unmapPages(P, N * sizeof(T));
}

/// Latency (or any) samples, summarized through support/Stats'
/// quantileSorted.
class Samples {
public:
  void add(double Value) { Values.push_back(Value); }
  void append(const Samples &Other);
  void clear() {
    Values.clear();
    Sorted = false;
  }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }
  double mean() const;
  /// \p Q quantile (sorts in place); 0 when empty.
  double quantile(double Q);
  /// quantile(tailLevel(size(), Cap)); 0 when fewer than 11 samples.
  double tail(double Cap = 0.99);

private:
  std::vector<double, PageAllocator<double>> Values;
  bool Sorted = false;
};

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// The CPUs the calling thread may run on, in ascending order; empty when
/// the system does not say.
std::vector<int> allowedCpus();

/// Gives the calling thread back the CPU mask it had at construction when
/// destroyed. In between, set() restricts it to some CPUs; threads it
/// starts meanwhile inherit the restriction.
class ScopedAffinity {
public:
  ScopedAffinity();
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity &) = delete;
  ScopedAffinity &operator=(const ScopedAffinity &) = delete;

  /// Restricts the calling thread to \p Cpus. A refused move leaves it
  /// where it was, which costs the measurement steadiness, not validity.
  void set(const std::vector<int> &Cpus);

private:
  std::vector<int> Saved;
};


/// A run's measurement split into windows. The run reports the median of
/// the per-window figures, so a stall that hits one window moves one
/// window, not the result.
struct Windows {
  std::vector<double> Rate;
  std::vector<double> P50;
  std::vector<double> P99;
  /// Live heap at each window's end, in MB.
  std::vector<double> HeapMb;

  /// Closes a window of \p Count operations over \p Seconds whose
  /// latencies are \p Latency, and clears \p Latency for the next one.
  void close(double Count, double Seconds, Samples &Latency);
};

/// One span of the traced run: a named interval on the host clock, the
/// span that caused it, and the request it belongs to.
struct Span {
  const char *Name = nullptr;
  uint32_t Parent = 0;
  uint64_t Request = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// One thread's spans, in a buffer sized up front so recording never
/// allocates. Spans past the capacity are counted, not kept.
class SpanLog {
public:
  static constexpr uint32_t None = UINT32_MAX;

  explicit SpanLog(size_t Capacity) { Spans.reserve(Capacity); }

  /// Opens a span and returns its index (None when the log is full).
  uint32_t begin(const char *Name, uint64_t Request, uint32_t Parent = None);
  void end(uint32_t Index);

  const std::vector<Span> &spans() const { return Spans; }
  uint64_t dropped() const { return Dropped; }

private:
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
};

/// The traced run's span logs, one per recording thread. Disabled, it
/// hands out no logs and the workloads record nothing.
class Tracer {
public:
  Tracer(bool Enabled, unsigned Threads, size_t CapacityPerThread = 100000);

  /// The log of thread \p Thread, or nullptr when tracing is off.
  SpanLog *log(unsigned Thread) {
    return Thread < Logs.size() ? Logs[Thread].get() : nullptr;
  }

  uint64_t spanCount() const;

  /// A count of kept and dropped spans, then per span name: count, mean
  /// duration and mean self time (duration minus what the span's
  /// children cover), as printable lines.
  std::vector<std::string> selfTimeSummary() const;

  /// Writes every kept span as CSV (thread,name,start_ns,end_ns,parent,
  /// request); false on IO failure.
  bool write(const std::string &Path) const;

private:
  std::vector<std::unique_ptr<SpanLog>> Logs;
};

/// RAII span: no-op without a log.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint64_t Request,
             uint32_t Parent = SpanLog::None)
      : Log(Log), Index(Log ? Log->begin(Name, Request, Parent)
                            : SpanLog::None) {}
  ~ScopedSpan() {
    if (Log)
      Log->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint32_t index() const { return Index; }

private:
  SpanLog *Log;
  uint32_t Index;
};

/// One catalogue entry; BENCHMARK.json lists the same names and units.
struct MetricSpec {
  const char *Name;
  const char *Unit;
  const char *Better;
};

/// End-to-end metrics: every workload reports all of them untraced.
const std::vector<MetricSpec> &endToEndMetrics();
/// Per-layer metrics: every workload reports all of them traced; a layer
/// a workload never calls reads 0.
const std::vector<MetricSpec> &perLayerMetrics();
/// The per-input efficiency names eff.<objective>.<platform>.<abbrev>,
/// in catalogue order (part of perLayerMetrics()).
const std::vector<std::string> &efficiencyMetricNames();
/// Workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// What one run reports.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::map<std::string, double> Values;

  /// Records a failed correctness check.
  void check(bool Ok, const std::string &What);
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}
/// with every metric of \p Catalogue (missing values read 0).
std::string renderResultJson(const RunResult &Result,
                             const std::vector<MetricSpec> &Catalogue);

/// Bytes this process holds through malloc right now, in MB. Unlike the
/// resident set it leaves out what the allocator keeps cached after a
/// free, which glibc's sliding mmap threshold makes vary between runs.
double liveHeapMb();

} // namespace perfbench

#endif // ECAS_PERFBENCH_HARNESS_H
