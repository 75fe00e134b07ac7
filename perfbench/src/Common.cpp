//===-- perfbench/src/Common.cpp - Shared workload plumbing ---------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace ecas;
using namespace perfbench;

void perfbench::reportSetup(const std::vector<SetupTimes> &Runs,
                            RunResult &Result) {
  std::vector<double> Total, Characterize, Inputs, Reference, Warm;
  for (const SetupTimes &T : Runs) {
    Total.push_back(T.total());
    Characterize.push_back(T.Characterize);
    Inputs.push_back(T.Inputs);
    Reference.push_back(T.ReferenceRuns);
    Warm.push_back(T.Warm);
  }
  Result.set("setup_s", median(Total));
  Result.set("power.characterize_s", median(Characterize));
  Result.set("workloads.inputs_s", median(Inputs));
  Result.set("core.reference_runs_s", median(Reference));
  Result.set("core.warm_s", median(Warm));
}

WorkloadConfig perfbench::suiteConfig(uint64_t Seed) {
  WorkloadConfig Config;
  Config.Scale = SuiteScale;
  Config.Seed = Seed;
  return Config;
}

InvocationTrace perfbench::flatWorkList(const std::vector<Workload> &Suite) {
  InvocationTrace Work;
  for (const Workload &W : Suite)
    Work.insert(Work.end(), W.Trace.begin(), W.Trace.end());
  return Work;
}

std::vector<double> perfbench::oracleMetrics(const PlatformSpec &Spec,
                                             const std::vector<Workload> &Suite,
                                             const Metric &Objective) {
  ExecutionSession Session(Spec);
  std::vector<double> Out;
  for (const Workload &W : Suite) {
    RunOptions Options;
    Options.Trace = &W.Trace;
    Options.Objective = Objective;
    Out.push_back(Session.run(SchemeKind::Oracle, Options).MetricValue);
  }
  return Out;
}

double perfbench::histogramMean(const obs::MetricsSnapshot &Snap,
                                const std::string &Name) {
  double Sum = 0.0;
  uint64_t Count = 0;
  for (const obs::MetricSample &S : Snap.Samples)
    if (S.Name == Name && S.Kind == obs::MetricKind::Histogram) {
      Sum += S.Hist.Sum;
      Count += S.Hist.Count;
    }
  return Count ? Sum / static_cast<double>(Count) : 0.0;
}

RequestContext perfbench::drawRequest(Xoshiro256 &Rng, uint64_t TenantId) {
  RequestContext Ctx;
  Ctx.TenantId = TenantId;
  double Draw = Rng.nextDouble() * 10.0;
  if (Draw < 2.0) {
    Ctx.Sla = SlaClass::Sla0;
    Ctx.DeadlineSec = 0.2;
  } else if (Draw < 7.0) {
    Ctx.Sla = SlaClass::Sla1;
    Ctx.DeadlineSec = 1.0;
  } else {
    Ctx.Sla = SlaClass::Sla2;
  }
  return Ctx;
}
