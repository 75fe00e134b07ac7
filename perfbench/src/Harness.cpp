//===-- perfbench/src/Harness.cpp - Timing, spans and results -------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ecas/support/Format.h"
#include "ecas/support/Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include <malloc.h>
#include <new>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>

using namespace perfbench;

double perfbench::tailLevel(size_t N, double Cap) {
  if (N < 11)
    return std::numeric_limits<double>::quiet_NaN();
  double Last = static_cast<double>(N - 1);
  // Samples ranked strictly above the interpolation position Q * (N - 1).
  auto Beyond = [&](double Q) {
    return static_cast<double>(N - 1) - std::floor(Q * Last);
  };
  if (Beyond(Cap) >= 10.0)
    return Cap;
  return static_cast<double>(N - 11) / Last;
}

void Samples::append(const Samples &Other) {
  Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  Sorted = false;
}

double Samples::mean() const {
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Values.empty() ? 0.0 : Sum / static_cast<double>(Values.size());
}

double Samples::quantile(double Q) {
  if (Values.empty())
    return 0.0;
  if (!Sorted) {
    std::sort(Values.begin(), Values.end());
    Sorted = true;
  }
  // quantileSorted reads only the two order statistics around Q; hand it
  // those (in a std::vector, as it takes) at the same interpolation
  // position rather than copying every sample onto the heap.
  double Position = std::clamp(Q, 0.0, 1.0) *
                    static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Position);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return ecas::quantileSorted({Values[Lo], Values[Hi]},
                              Position - static_cast<double>(Lo));
}

double Samples::tail(double Cap) {
  double Level = tailLevel(Values.size(), Cap);
  return std::isnan(Level) ? 0.0 : quantile(Level);
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  return ecas::quantileSorted(Values, 0.5);
}

std::vector<int> perfbench::allowedCpus() {
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  std::vector<int> Cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(Mask), &Mask) != 0)
    return Cpus;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Mask))
      Cpus.push_back(Cpu);
  return Cpus;
}

ScopedAffinity::ScopedAffinity() : Saved(allowedCpus()) {}

ScopedAffinity::~ScopedAffinity() {
  if (!Saved.empty())
    set(Saved);
}

void ScopedAffinity::set(const std::vector<int> &Cpus) {
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Mask);
  pthread_setaffinity_np(pthread_self(), sizeof(Mask), &Mask);
}

void Windows::close(double Count, double Seconds, Samples &Latency) {
  if (Seconds <= 0.0 || Latency.empty())
    return;
  Rate.push_back(Count / Seconds);
  P50.push_back(Latency.quantile(0.5));
  P99.push_back(Latency.tail(0.99));
  HeapMb.push_back(liveHeapMb());
  Latency.clear();
}

static uint64_t hostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

uint32_t SpanLog::begin(const char *Name, uint64_t Request, uint32_t Parent) {
  if (Spans.size() == Spans.capacity()) {
    ++Dropped;
    return None;
  }
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Request = Request;
  S.StartNs = hostNs();
  Spans.push_back(S);
  return static_cast<uint32_t>(Spans.size() - 1);
}

void SpanLog::end(uint32_t Index) {
  if (Index != None)
    Spans[Index].EndNs = hostNs();
}

Tracer::Tracer(bool Enabled, unsigned Threads, size_t CapacityPerThread) {
  if (!Enabled)
    return;
  for (unsigned I = 0; I != Threads; ++I)
    Logs.push_back(std::make_unique<SpanLog>(CapacityPerThread));
}

uint64_t Tracer::spanCount() const {
  uint64_t N = 0;
  for (const auto &Log : Logs)
    N += Log->spans().size();
  return N;
}


std::vector<std::string> Tracer::selfTimeSummary() const {
  struct Totals {
    uint64_t Count = 0;
    double DurNs = 0.0;
    double SelfNs = 0.0;
  };
  std::map<std::string, Totals> ByName;
  uint64_t Dropped = 0;
  for (const auto &Log : Logs) {
    Dropped += Log->dropped();
    const std::vector<Span> &Spans = Log->spans();
    // Children always start after their parent, so one pass can charge
    // each child's duration against its parent's self time.
    std::vector<double> ChildNs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent != SpanLog::None && S.EndNs >= S.StartNs)
        ChildNs[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.EndNs < S.StartNs)
        continue;
      double Dur = static_cast<double>(S.EndNs - S.StartNs);
      Totals &T = ByName[S.Name];
      ++T.Count;
      T.DurNs += Dur;
      T.SelfNs += Dur - ChildNs[I];
    }
  }
  std::vector<std::string> Lines = {ecas::formatString(
      "%llu spans kept, %llu dropped past the buffer",
      static_cast<unsigned long long>(spanCount()),
      static_cast<unsigned long long>(Dropped))};
  for (const auto &[Name, T] : ByName)
    Lines.push_back(ecas::formatString(
        "%-14s %9llu spans  mean %10.0f ns  self %10.0f ns", Name.c_str(),
        static_cast<unsigned long long>(T.Count),
        T.DurNs / static_cast<double>(T.Count),
        T.SelfNs / static_cast<double>(T.Count)));
  return Lines;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "thread,name,start_ns,end_ns,parent,request\n");
  for (size_t T = 0; T != Logs.size(); ++T)
    for (const Span &S : Logs[T]->spans())
      std::fprintf(Out, "%zu,%s,%llu,%llu,%lld,%llu\n", T, S.Name,
                   static_cast<unsigned long long>(S.StartNs),
                   static_cast<unsigned long long>(S.EndNs),
                   S.Parent == SpanLog::None
                       ? -1LL
                       : static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Request));
  return std::fclose(Out) == 0;
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"paper-figs", "serve-warm",
                                                 "learn-dvfs"};
  return Names;
}

const std::vector<MetricSpec> &perfbench::endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"inv_per_s", "1/s", "higher"},
      {"call_us_p50", "us", "lower"},
      {"quality_pct", "%", "higher"},
      {"setup_s", "s", "lower"},
      {"heap_mb", "MB", "lower"},
  };
  return Specs;
}

const std::vector<std::string> &perfbench::efficiencyMetricNames() {
  static const std::vector<std::string> Names = [] {
    const char *Desktop[] = {"BH", "BFS", "CC", "FD", "MB", "SL",
                             "SP", "BS", "MM", "NB", "RT", "SM"};
    const char *Tablet[] = {"MB", "SL", "BS", "MM", "NB", "RT", "SM"};
    std::vector<std::string> Out;
    for (const char *Objective : {"edp", "energy"}) {
      for (const char *Abbrev : Desktop)
        Out.push_back(std::string("eff.") + Objective + ".desktop." + Abbrev);
      for (const char *Abbrev : Tablet)
        Out.push_back(std::string("eff.") + Objective + ".tablet." + Abbrev);
    }
    return Out;
  }();
  return Names;
}

const std::vector<MetricSpec> &perfbench::perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = [] {
    std::vector<MetricSpec> Out = {
        {"core.hit_ns_p50", "ns", "lower"},
        {"core.hit_ns_p99", "ns", "lower"},
        {"sim.dispatch_ns_p50", "ns", "lower"},
        {"core.lookup_ns_p50", "ns", "lower"},
        {"obs.armed_hit_overhead_ns", "ns", "lower"},
        {"service.admit_ns_p50", "ns", "lower"},
        {"service.queue_push_pop_ns_p50", "ns", "lower"},
        {"service.overloaded_per_1k", "1/1k", "lower"},
        {"service.queue_depth_mean", "count", "lower"},
        {"service.worker_ns_per_req", "ns", "lower"},
        {"service.overhead_ns_per_req", "ns", "lower"},
        {"core.search_ns_p50", "ns", "lower"},
        {"core.search_evals", "count", "lower"},
        {"core.searches_per_profiled", "ratio", "lower"},
        {"profile.rep_us_p50", "us", "lower"},
        {"profile.reps_per_profiled", "ratio", "lower"},
        {"core.table_hit_frac", "ratio", "higher"},
        {"core.journal_bytes_per_inv", "B", "lower"},
        {"core.journal_flushes_per_1k_inv", "1/1k", "lower"},
        {"core.journal_flush_us_p50", "us", "lower"},
        {"core.model_time_rel_err", "ratio", "lower"},
        {"core.model_energy_rel_err", "ratio", "lower"},
        {"call.us_p99", "us", "lower"},
        {"call.profiled_ms_p90", "ms", "lower"},
        {"call.profiled_ms_p99", "ms", "lower"},
        {"call.hit_us_p99", "us", "lower"},
        {"power.characterize_s", "s", "lower"},
        {"workloads.inputs_s", "s", "lower"},
        {"core.reference_runs_s", "s", "lower"},
        {"core.warm_s", "s", "lower"},
        {"quality.eas_edp_eff_desktop", "%", "higher"},
        {"quality.eas_energy_eff_desktop", "%", "higher"},
        {"quality.eas_edp_eff_tablet", "%", "higher"},
        {"quality.eas_energy_eff_tablet", "%", "higher"},
        {"quality.dvfs_energy_saved_pct", "%", "higher"},
        {"trace.overhead_pct", "%", "lower"},
        {"trace.spans", "count", "higher"},
    };
    for (const std::string &Name : efficiencyMetricNames())
      Out.push_back({Name.c_str(), "%", "higher"});
    return Out;
  }();
  return Specs;
}

void RunResult::check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  Correct = false;
  Errors.push_back(What);
}

std::string perfbench::renderResultJson(
    const RunResult &Result, const std::vector<MetricSpec> &Catalogue) {
  std::string Out = ecas::formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Result.Correct ? "true" : "false",
      static_cast<unsigned long long>(Result.Attempted),
      static_cast<unsigned long long>(Result.Failed));
  bool First = true;
  for (const MetricSpec &Spec : Catalogue) {
    auto It = Result.Values.find(Spec.Name);
    double Value = It == Result.Values.end() ? 0.0 : It->second;
    // JSON has no NaN/Inf; a non-finite value is a broken measurement.
    if (!std::isfinite(Value))
      Value = 0.0;
    Out += ecas::formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              First ? "" : ", ", Spec.Name, Value, Spec.Unit);
    First = false;
  }
  Out += "}}";
  return Out;
}

void *perfbench::mapPages(size_t Bytes) {
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return P;
}

void perfbench::unmapPages(void *P, size_t Bytes) { munmap(P, Bytes); }

double perfbench::liveHeapMb() {
  struct mallinfo2 Info = mallinfo2();
  return static_cast<double>(Info.uordblks + Info.hblkhd) / (1024.0 * 1024.0);
}
