//===-- ecas/workloads/Registry.cpp - Benchmark suites --------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/workloads/Registry.h"

#include "ecas/workloads/GraphWorkloads.h"
#include "ecas/workloads/Mandelbrot.h"

#include <algorithm>
#include <cctype>

using namespace ecas;

Workload ecas::makeBarnesHutWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "bh.force";
  // Theta-criterion traversal visits hundreds of nodes per body.
  Kernel.CpuCyclesPerIter = 12000.0;
  Kernel.GpuCyclesPerIter = 12000.0;
  Kernel.BytesPerIter = 400.0;
  Kernel.LoadStoresPerIter = 250.0;
  Kernel.LlcMissRatio = 0.35;
  Kernel.InstrsPerIter = 2500.0;
  Kernel.GpuEfficiency = 0.07;
  Kernel.CpuVectorizable = 0.15;
  Kernel.withAutoId();

  Workload W;
  W.Name = "BarnesHut";
  W.Abbrev = "BH";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Long;
  W.ExpectedGpu = DurationClass::Long;
  W.OnTablet = false;
  // 1M bodies, one force step, one kernel invocation.
  W.Trace = {{Kernel, 1e6}};
  return W;
}

Workload ecas::makeBlackScholesWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "bs.price";
  // log/exp/erf dominate: hundreds of cycles per option on both sides.
  Kernel.CpuCyclesPerIter = 1300.0;
  Kernel.GpuCyclesPerIter = 1400.0;
  Kernel.BytesPerIter = 28.0;
  Kernel.LoadStoresPerIter = 8.0;
  Kernel.LlcMissRatio = 0.08;
  Kernel.InstrsPerIter = 950.0;
  Kernel.GpuEfficiency = 0.9;
  Kernel.CpuVectorizable = 0.85;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Blackscholes";
  W.Abbrev = "BS";
  W.Regular = true;
  W.ExpectedBound = Boundedness::Compute;
  W.ExpectedCpu = DurationClass::Short;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = true;
  // Desktop: 64K options x 2000 invocations; tablet: one 2.62M batch
  // repriced the same number of times.
  double PerInvocation = Config.TabletInputs ? 2621440.0 : 65536.0;
  unsigned Invocations = 2000;
  W.Trace.reserve(Invocations);
  for (unsigned I = 0; I != Invocations; ++I)
    W.Trace.push_back({Kernel, PerInvocation});
  return W;
}

Workload ecas::makeFaceDetectWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "fd.stage";
  Kernel.CpuCyclesPerIter = 300.0;
  Kernel.GpuCyclesPerIter = 500.0;
  Kernel.BytesPerIter = 8.0;
  Kernel.LoadStoresPerIter = 20.0;
  Kernel.LlcMissRatio = 0.05;
  Kernel.InstrsPerIter = 320.0;
  Kernel.GpuEfficiency = 0.04; // Early-exit divergence.
  Kernel.CpuVectorizable = 0.40;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Face Detect";
  W.Abbrev = "FD";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Compute;
  W.ExpectedCpu = DurationClass::Short;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = false;
  // 132 invocations: cascade stages over pyramid scales; the surviving
  // window count decays geometrically like a real cascade.
  double Windows = 3000.0 * 2171.0 / 4.0 * Config.Scale;
  W.Trace.reserve(132);
  double N = Windows;
  for (unsigned I = 0; I != 132; ++I) {
    W.Trace.push_back({Kernel, std::max(1.0, N)});
    N *= 0.94;
  }
  return W;
}

Workload ecas::makeMatrixMultiplyWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "mm.tile";
  Kernel.CpuCyclesPerIter = 18000.0; // One output element: 2048 MACs.
  Kernel.GpuCyclesPerIter = 5600.0;
  Kernel.BytesPerIter = 48.0; // Blocked reuse keeps traffic low.
  Kernel.LoadStoresPerIter = 600.0;
  Kernel.LlcMissRatio = 0.02;
  Kernel.InstrsPerIter = 4500.0;
  Kernel.GpuEfficiency = 0.30;
  Kernel.CpuVectorizable = 0.95;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Matrix Multiply";
  W.Abbrev = "MM";
  W.Regular = true;
  W.ExpectedBound = Boundedness::Compute;
  W.ExpectedCpu = DurationClass::Long;
  W.ExpectedGpu = DurationClass::Long;
  W.OnTablet = true;
  double Side = Config.TabletInputs ? 1024.0 : 2048.0;
  W.Trace = {{Kernel, Side * Side}};
  return W;
}

Workload ecas::makeNBodyWorkload(const WorkloadConfig &Config) {
  double Bodies = Config.TabletInputs ? 1024.0 : 4096.0;

  KernelDesc Kernel;
  Kernel.Name = "nb.step";
  // One iteration = one body's interactions with all N others. Scalar
  // rsqrt-heavy inner loop on the CPU; wide and regular on the GPU.
  Kernel.CpuCyclesPerIter = Bodies * 200.0;
  Kernel.GpuCyclesPerIter = Bodies * 68.0;
  Kernel.BytesPerIter = 64.0; // Positions stream through the LLC.
  Kernel.LoadStoresPerIter = Bodies * 4.0;
  Kernel.LlcMissRatio = 0.005;
  Kernel.InstrsPerIter = Bodies * 220.0;
  Kernel.GpuEfficiency = 0.30;
  Kernel.CpuVectorizable = 0.0;
  Kernel.withAutoId();

  Workload W;
  W.Name = "N-Body";
  W.Abbrev = "NB";
  W.Regular = true;
  W.ExpectedBound = Boundedness::Compute;
  W.ExpectedCpu = DurationClass::Long;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = true;
  W.Trace.reserve(101);
  for (unsigned Step = 0; Step != 101; ++Step)
    W.Trace.push_back({Kernel, Bodies});
  return W;
}

Workload ecas::makeRayTracerWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "rt.trace";
  Kernel.CpuCyclesPerIter = 5400.0;
  Kernel.GpuCyclesPerIter = 5000.0;
  Kernel.BytesPerIter = 20.0;
  Kernel.LoadStoresPerIter = 250.0;
  Kernel.LlcMissRatio = 0.03;
  Kernel.InstrsPerIter = 3200.0;
  Kernel.GpuEfficiency = 0.13; // Shadow-ray divergence.
  Kernel.CpuVectorizable = 0.30;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Ray Tracer";
  W.Abbrev = "RT";
  W.Regular = true;
  W.ExpectedBound = Boundedness::Compute;
  W.ExpectedCpu = DurationClass::Long;
  W.ExpectedGpu = DurationClass::Long;
  W.OnTablet = true;
  W.Trace = {{Kernel, 1920.0 * 1080.0}};
  return W;
}

Workload ecas::makeSeismicWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "sm.frame";
  Kernel.CpuCyclesPerIter = 45.0;
  Kernel.GpuCyclesPerIter = 200.0;
  Kernel.BytesPerIter = 24.0;
  Kernel.LoadStoresPerIter = 6.0;
  Kernel.LlcMissRatio = 0.40;
  Kernel.InstrsPerIter = 50.0;
  Kernel.GpuEfficiency = 0.50;
  Kernel.CpuVectorizable = 0.80;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Seismic";
  W.Abbrev = "SM";
  W.Regular = true;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Short;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = true;
  double Cells = 1950.0 * 1326.0;
  W.Trace.reserve(100);
  for (unsigned Frame = 0; Frame != 100; ++Frame)
    W.Trace.push_back({Kernel, Cells});
  return W;
}

Workload ecas::makeSkipListWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "sl.probe";
  Kernel.CpuCyclesPerIter = 180.0;
  Kernel.GpuCyclesPerIter = 400.0; // Pointer chasing wrecks the GPU.
  Kernel.BytesPerIter = 64.0;
  Kernel.LoadStoresPerIter = 12.0;
  Kernel.LlcMissRatio = 0.50;
  Kernel.InstrsPerIter = 200.0;
  Kernel.GpuEfficiency = 0.08;
  Kernel.CpuVectorizable = 0.0;
  Kernel.withAutoId();

  Workload W;
  W.Name = "SkipList";
  W.Abbrev = "SL";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Long;
  W.ExpectedGpu = DurationClass::Long;
  W.OnTablet = true;
  W.Trace = {{Kernel, Config.TabletInputs ? 45e6 : 500e6}};
  return W;
}

std::vector<Workload> ecas::desktopSuite(const WorkloadConfig &Config) {
  std::vector<Workload> Suite;
  Suite.push_back(makeBarnesHutWorkload(Config));
  Suite.push_back(makeBfsWorkload(Config));
  Suite.push_back(makeCcWorkload(Config));
  Suite.push_back(makeFaceDetectWorkload(Config));
  Suite.push_back(makeMandelbrotWorkload(Config));
  Suite.push_back(makeSkipListWorkload(Config));
  Suite.push_back(makeSsspWorkload(Config));
  Suite.push_back(makeBlackScholesWorkload(Config));
  Suite.push_back(makeMatrixMultiplyWorkload(Config));
  Suite.push_back(makeNBodyWorkload(Config));
  Suite.push_back(makeRayTracerWorkload(Config));
  Suite.push_back(makeSeismicWorkload(Config));
  return Suite;
}

std::vector<Workload> ecas::tabletSuite(WorkloadConfig Config) {
  Config.TabletInputs = true;
  std::vector<Workload> Suite;
  Suite.push_back(makeMandelbrotWorkload(Config));
  Suite.push_back(makeSkipListWorkload(Config));
  Suite.push_back(makeBlackScholesWorkload(Config));
  Suite.push_back(makeMatrixMultiplyWorkload(Config));
  Suite.push_back(makeNBodyWorkload(Config));
  Suite.push_back(makeRayTracerWorkload(Config));
  Suite.push_back(makeSeismicWorkload(Config));
  return Suite;
}

const Workload *ecas::findWorkload(const std::vector<Workload> &Suite,
                                   const std::string &Abbrev) {
  auto Lower = [](std::string Text) {
    std::transform(Text.begin(), Text.end(), Text.begin(),
                   [](unsigned char C) { return std::tolower(C); });
    return Text;
  };
  std::string Wanted = Lower(Abbrev);
  for (const Workload &W : Suite)
    if (Lower(W.Abbrev) == Wanted)
      return &W;
  return nullptr;
}
