//===-- examples/characterize_platform.cpp - Custom SKU flow --------------===//
//
// Part of the ecas project, under the MIT License.
//
// The "new processor arrives" workflow: describe the SKU as a
// PlatformSpec, run the one-time black-box characterization, persist
// spec and curves to disk, and reload them for scheduling — exactly the
// once-per-processor step of Section 2.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/support/Flags.h"
#include "ecas/workloads/Registry.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ecas;

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"spec-out", "curves-out"},
                         "usage: characterize_platform [--spec-out=PATH] "
                         "[--curves-out=PATH]"))
    return 2;

  // A hypothetical next-generation part: start from the desktop preset,
  // widen the GPU, shrink the budget.
  PlatformSpec Spec = haswellDesktop();
  Spec.Name = "custom-48eu-part";
  Spec.Gpu.ExecutionUnits = 48;
  Spec.GpuPower.CubicWattsPerGHz3 *= 2.1; // More EUs, more dynamic power.
  Spec.Pcu.TdpWatts = 65.0;
  std::string Error;
  if (!Spec.validate(Error)) {
    std::fprintf(stderr, "invalid spec: %s\n", Error.c_str());
    return 1;
  }
  std::printf("SKU %s: %u EUs -> %u-way GPU parallelism, profile chunk "
              "%u\n",
              Spec.Name.c_str(), Spec.Gpu.ExecutionUnits,
              Spec.gpuHardwareParallelism(), Spec.defaultGpuProfileSize());

  // One-time characterization, persisted next to the spec.
  Characterizer Probe(Spec);
  PowerCurveSet Curves = Probe.characterize();
  std::string SpecPath = Args.getString("spec-out", "custom_platform.spec");
  std::string CurvePath =
      Args.getString("curves-out", "custom_platform.curves");
  {
    std::ofstream SpecFile(SpecPath);
    SpecFile << Spec.serialize();
    std::ofstream CurveFile(CurvePath);
    CurveFile << Curves.serialize();
  }
  std::printf("wrote %s and %s\n", SpecPath.c_str(), CurvePath.c_str());

  // A later process reloads both and schedules against them.
  auto Slurp = [](const std::string &Path) {
    std::ifstream File(Path);
    std::ostringstream Buffer;
    Buffer << File.rdbuf();
    return Buffer.str();
  };
  ErrorOr<PlatformSpec> LoadedSpec = PlatformSpec::load(Slurp(SpecPath));
  if (!LoadedSpec) {
    std::fprintf(stderr, "spec round-trip failed: %s\n",
                 LoadedSpec.status().message().c_str());
    return 1;
  }
  // A corrupt or truncated curve file is an operational event, not a
  // programming error: report the recoverable status and fall back to
  // re-characterizing the part (it is a pure function of the spec).
  ErrorOr<PowerCurveSet> LoadedCurves =
      PowerCurveSet::load(Slurp(CurvePath), /*RequireComplete=*/true);
  if (!LoadedCurves) {
    std::fprintf(stderr,
                 "cannot load %s (%s: %s); re-characterizing instead\n",
                 CurvePath.c_str(), errCodeName(LoadedCurves.status().code()),
                 LoadedCurves.status().message().c_str());
    LoadedCurves = Characterizer(*LoadedSpec).characterize();
  }
  std::printf("reloaded spec '%s' and %s curve set\n",
              LoadedSpec->Name.c_str(),
              LoadedCurves->complete() ? "complete" : "partial");

  ExecutionSession Session(*LoadedSpec);
  Workload Mm = *findWorkload(desktopSuite(WorkloadConfig{}), "MM");
  RunOptions Options;
  Options.Trace = &Mm.Trace;
  Options.Curves = &*LoadedCurves;
  Options.Objective = Metric::edp();
  SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
  SessionReport Eas = Session.run(SchemeKind::Eas, Options);
  std::printf("MM on the custom part: EAS alpha %.2f, %.1f%% of oracle "
              "EDP (the wider GPU pulls work toward alpha=1)\n",
              Eas.MeanAlpha, 100.0 * Oracle.MetricValue / Eas.MetricValue);
  return 0;
}
