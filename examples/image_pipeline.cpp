//===-- examples/image_pipeline.cpp - Hybrid host execution ---------------===//
//
// Part of the ecas project, under the MIT License.
//
// The Concord-style host runtime in action: a Mandelbrot frame rendered
// for real on the work-stealing thread pool, then re-rendered with
// hybridParallelFor, where a pluggable "GPU" executor takes the offloaded
// tail (here backed by a second host thread — on real hardware this hook
// would enqueue an OpenCL NDRange). Finally the simulated platform shows
// what the same split costs in energy.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/ExecutionSession.h"
#include "ecas/hw/Presets.h"
#include "ecas/power/Characterizer.h"
#include "ecas/runtime/ParallelFor.h"
#include "ecas/support/Flags.h"
#include "ecas/support/Format.h"
#include "ecas/workloads/Mandelbrot.h"

#include <chrono>
#include <cstdio>

using namespace ecas;

static double wallSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"width", "height"},
                         "usage: image_pipeline [--width=N] [--height=N]"))
    return 2;
  ErrorOr<long long> WidthFlag =
      Args.getNumber<long long>("width", 1024, 1, 65536);
  ErrorOr<long long> HeightFlag =
      Args.getNumber<long long>("height", 768, 1, 65536);
  if (!WidthFlag || !HeightFlag) {
    std::fprintf(stderr, "error: %s\n",
                 (WidthFlag ? HeightFlag : WidthFlag)
                     .status()
                     .message()
                     .c_str());
    return 2;
  }
  const auto Width = static_cast<uint32_t>(*WidthFlag);
  const auto Height = static_cast<uint32_t>(*HeightFlag);
  const uint32_t MaxIter = 256;
  const uint64_t Pixels = static_cast<uint64_t>(Width) * Height;

  // Reference render (sequential) for validation.
  std::vector<uint16_t> Reference;
  renderMandelbrot(Width, Height, MaxIter, Reference);

  // Per-pixel body shared by every execution mode.
  const double X0 = -2.2, X1 = 1.0, Y0 = -1.28, Y1 = 1.28;
  std::vector<uint16_t> Out(Pixels, 0);
  auto Body = [&](uint64_t Begin, uint64_t End) {
    for (uint64_t Pixel = Begin; Pixel != End; ++Pixel) {
      uint32_t Px = static_cast<uint32_t>(Pixel % Width);
      uint32_t Py = static_cast<uint32_t>(Pixel / Width);
      double Cr = X0 + (X1 - X0) * Px / Width;
      double Ci = Y0 + (Y1 - Y0) * Py / Height;
      double Zr = 0.0, Zi = 0.0;
      uint32_t Iter = 0;
      while (Iter < MaxIter && Zr * Zr + Zi * Zi <= 4.0) {
        double NewZr = Zr * Zr - Zi * Zi + Cr;
        Zi = 2.0 * Zr * Zi + Ci;
        Zr = NewZr;
        ++Iter;
      }
      Out[Pixel] = static_cast<uint16_t>(Iter);
    }
  };

  ThreadPool Pool(4);

  // CPU-only parallel render on the work-stealing pool.
  double Start = wallSeconds();
  Pool.parallelFor(0, Pixels, /*Grain=*/512, Body);
  double PoolSeconds = wallSeconds() - Start;
  bool PoolMatches = Out == Reference;

  // Hybrid render: 40% of pixels go to the "GPU" executor hook.
  std::fill(Out.begin(), Out.end(), 0);
  Start = wallSeconds();
  HybridResult Hybrid = hybridParallelFor(
      Pool, Pixels, /*Alpha=*/0.4, Body,
      /*Gpu=*/[&Body](uint64_t Begin, uint64_t End) { Body(Begin, End); },
      /*Grain=*/512);
  double HybridSeconds = wallSeconds() - Start;
  bool HybridMatches = Out == Reference;

  std::printf("render %ux%u (%llu pixels), work-stealing pool of %u "
              "threads\n",
              Width, Height, static_cast<unsigned long long>(Pixels),
              Pool.numWorkers());
  std::printf("  pool render   : %-10s %s\n",
              formatDuration(PoolSeconds).c_str(),
              PoolMatches ? "matches reference" : "MISMATCH");
  std::printf("  hybrid render : %-10s %s (CPU %llu px, GPU-hook %llu "
              "px, %llu steals)\n",
              formatDuration(HybridSeconds).c_str(),
              HybridMatches ? "matches reference" : "MISMATCH",
              static_cast<unsigned long long>(Hybrid.CpuIterations),
              static_cast<unsigned long long>(Hybrid.GpuIterations),
              static_cast<unsigned long long>(Pool.totalSteals()));

  // What does the same workload cost on the simulated desktop?
  PlatformSpec Spec = haswellDesktop();
  PowerCurveSet Curves = Characterizer(Spec).characterize();
  ExecutionSession Session(Spec);
  Workload Mb = makeMandelbrotWorkload(WorkloadConfig{});
  RunOptions Options;
  Options.Trace = &Mb.Trace;
  Options.Curves = &Curves;
  Options.Objective = Metric::energy();
  SessionReport Eas = Session.run(SchemeKind::Eas, Options);
  SessionReport Cpu = Session.run(SchemeKind::CpuOnly, Options);
  std::printf("\nsimulated desktop, full 7680x6144 frame:\n");
  std::printf("  CPU-alone: %s, %s\n", formatDuration(Cpu.Seconds).c_str(),
              formatEnergy(Cpu.Joules).c_str());
  std::printf("  EAS      : %s, %s (alpha %.2f) — %.0f%% of CPU-alone "
              "energy\n",
              formatDuration(Eas.Seconds).c_str(),
              formatEnergy(Eas.Joules).c_str(), Eas.MeanAlpha,
              100.0 * Eas.Joules / Cpu.Joules);
  return (PoolMatches && HybridMatches) ? 0 : 1;
}
