//===-- ecas/workloads/Workload.h - Benchmark workloads ---------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The twelve evaluation workloads of Table 1, each a simulator trace:
/// per-invocation iteration counts plus a calibrated kernel cost
/// descriptor. The graph workloads derive their invocation sequence from
/// running the real algorithm, so the irregularity the paper discusses is
/// genuine; MB also has a host implementation for the work-stealing
/// runtime.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_WORKLOADS_WORKLOAD_H
#define ECAS_WORKLOADS_WORKLOAD_H

#include "ecas/core/Schedulers.h"
#include "ecas/profile/WorkloadClass.h"

#include <cmath>
#include <string>

namespace ecas {

/// Input sizing for workload construction. Scale 1.0 approximates the
/// paper's desktop inputs; the tablet inputs of Table 1 are smaller
/// (shared-memory limit of the 32-bit driver).
struct WorkloadConfig {
  /// Shrinks the *graph* workloads' host-side construction (node count
  /// scales linearly; invocation-trace totals scale with sqrt so the
  /// per-invocation frontier magnitude stays at the W-USA level). FD's
  /// window count scales linearly; the other workloads' traces cost
  /// nothing to build and always use the Table 1 sizes.
  double Scale = 1.0;
  /// Largest Scale whose road graph still numbers its nodes in 32 bits
  /// (graphDimensions: side 875 * sqrt(Scale), side^2 nodes).
  static constexpr double MaxScale = 5600.0;
  /// True for a finite Scale in (0, MaxScale]. Callers taking Scale from
  /// outside (a --scale flag) check it before building anything.
  static bool validScale(double Scale) {
    return std::isfinite(Scale) && Scale > 0.0 && Scale <= MaxScale;
  }
  /// Seed for input generators.
  uint64_t Seed = 0x5eed;
  /// Use the tablet column of Table 1 for input sizes.
  bool TabletInputs = false;
};

/// One benchmark: identity, Table 1 metadata, and the simulator trace.
struct Workload {
  std::string Name;
  std::string Abbrev;
  bool Regular = true;
  InvocationTrace Trace;
  /// Table 1's desktop classification, used by validation tests and the
  /// Table 1 reproduction bench.
  Boundedness ExpectedBound = Boundedness::Compute;
  DurationClass ExpectedCpu = DurationClass::Long;
  DurationClass ExpectedGpu = DurationClass::Long;
  /// Present in the tablet suite (7 of 12 build on the 32-bit target).
  bool OnTablet = false;

  unsigned numInvocations() const {
    return static_cast<unsigned>(Trace.size());
  }
  double totalIterations() const { return traceIterations(Trace); }
};

} // namespace ecas

#endif // ECAS_WORKLOADS_WORKLOAD_H
