//===-- examples/host_scheduling.cpp - EAS pattern on the host runtime ----===//
//
// Part of the ecas project, under the MIT License.
//
// The paper's online-profiling pattern executed for real on the host
// runtime: the GPU proxy offloads a GPU_PROFILE_SIZE chunk while CPU
// workers drain the shared iteration pool (Fig. 7, OnlineProfile), each
// side's throughput (R_C, R_G) comes from its measured busy time,
// alpha_PERF = R_G / (R_C + R_G) — Eq. 2 — and the remainder runs
// partitioned at that ratio (Fig. 8). Everything here is real threads
// and real work; no simulator involved.
//
//===----------------------------------------------------------------------===//

#include "ecas/core/TimeModel.h"
#include "ecas/runtime/ParallelFor.h"
#include "ecas/support/Flags.h"
#include "ecas/support/Format.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace ecas;

static double wallSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Keeps the optimizer from deleting the arithmetic.
static void benchmarkSink(double Value) {
  static volatile double Sink;
  Sink = Value;
  (void)Sink;
}

int main(int Argc, char **Argv) {
  Flags Args(Argc, Argv);
  if (Args.rejectUnknown({"n", "chunk"},
                         "usage: host_scheduling [--n=N] [--chunk=N]"))
    return 2;
  ErrorOr<long long> NFlag =
      Args.getNumber<long long>("n", 2'000'000, 1, 1LL << 40);
  ErrorOr<long long> ChunkFlag =
      Args.getNumber<long long>("chunk", 131'072, 1, 1LL << 40);
  if (!NFlag || !ChunkFlag) {
    std::fprintf(stderr, "error: %s\n",
                 (NFlag ? ChunkFlag : NFlag).status().message().c_str());
    return 2;
  }
  const auto N = static_cast<uint64_t>(*NFlag);
  const auto ProfileChunk = static_cast<uint64_t>(*ChunkFlag);
  const unsigned CpuThreads = 4;
  const double GpuDispatchLatencySec = 50e-6;

  // The "GPU" executor runs the same body single-threaded: on a machine
  // with several cores the CPU pool wins and alpha lands low; on a
  // single-core machine the two sides tie. Either way the *pattern* is
  // the paper's: measure both devices, derive the ratio, partition. The
  // per-iteration work is a dependency chain of square roots, so neither
  // side can vectorize it away.
  std::atomic<uint64_t> Done{0};
  auto Work = [&Done](uint64_t Begin, uint64_t End) {
    double Acc = 0.0;
    for (uint64_t I = Begin; I != End; ++I) {
      double X = static_cast<double>(I) + 2.0;
      for (int Step = 0; Step != 8; ++Step)
        X = std::sqrt(X + static_cast<double>(Step));
      Acc += X;
    }
    benchmarkSink(Acc);
    Done.fetch_add(End - Begin, std::memory_order_relaxed);
  };

  // Each launch pays the modelled GPU dispatch latency, then times
  // its own kernel window — what an OpenCL profiling event reports.
  double LastStart = 0.0, LastEnd = 0.0, LastOverhead = 0.0;
  GpuExecutor Gpu = [&](uint64_t Begin, uint64_t End) {
    double Queued = wallSeconds();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(GpuDispatchLatencySec));
    LastStart = wallSeconds();
    Work(Begin, End);
    LastEnd = wallSeconds();
    LastOverhead = LastStart - Queued;
  };

  // --- Online profiling (Fig. 7, OnlineProfile) -------------------------
  WorkPool Iterations(N);
  HybridResult Profile =
      profileChunkOnHost(Iterations, ProfileChunk, CpuThreads, Work, Gpu);

  double Rg = Profile.GpuIterations / (LastEnd - LastStart);
  double Rc = Profile.CpuIterations / Profile.CpuSeconds;
  TimeModel Model(Rc, Rg);
  double Alpha = Model.alphaPerf();
  std::printf("profiled:  R_C = %.1f M iters/s, R_G = %.1f M iters/s\n",
              Rc / 1e6, Rg / 1e6);
  std::printf("           GPU dispatch overhead %.1f us (excluded from "
              "R_G, as with OpenCL profiling events)\n",
              LastOverhead * 1e6);
  std::printf("alpha_PERF = R_G / (R_C + R_G) = %.3f\n\n", Alpha);

  // --- Partitioned execution of the remainder ---------------------------
  const uint64_t Remaining = Iterations.remaining();
  const uint64_t Offset = N - Remaining;
  auto Rest = [&Work, Offset](uint64_t Begin, uint64_t End) {
    Work(Offset + Begin, Offset + End);
  };
  GpuExecutor GpuRest = [&Gpu, Offset](uint64_t Begin, uint64_t End) {
    Gpu(Offset + Begin, Offset + End);
  };
  ThreadPool Pool(CpuThreads);
  double Start = wallSeconds();
  HybridResult Hybrid =
      hybridParallelFor(Pool, Remaining, Alpha, Rest, GpuRest);
  double HybridSeconds = wallSeconds() - Start;

  // Reference points: each device alone.
  Start = wallSeconds();
  uint64_t CpuAloneIters = Pool.parallelFor(0, Remaining, 256, Rest);
  double CpuAlone = wallSeconds() - Start;
  Start = wallSeconds();
  GpuRest(0, Remaining);
  double GpuAlone = wallSeconds() - Start;

  std::printf("host has %u hardware threads; the CPU queue used a pool "
              "of %u\n",
              std::thread::hardware_concurrency(), Pool.numWorkers());
  std::printf("remainder (%llu iters):\n",
              static_cast<unsigned long long>(Remaining));
  std::printf("  cpu-alone  %s\n", formatDuration(CpuAlone).c_str());
  std::printf("  gpu-alone  %s\n", formatDuration(GpuAlone).c_str());
  std::printf("  hybrid     %s at alpha %.2f\n",
              formatDuration(HybridSeconds).c_str(), Alpha);
  double BestSingle = std::min(CpuAlone, GpuAlone);
  std::printf("hybrid vs best single device: %.2fx (expect >1 only when "
              "the host has spare cores for both queues)\n",
              BestSingle / HybridSeconds);

  // Profiling and the partitioned remainder cover [0, N) once; the two
  // reference runs repeat the remainder on each device.
  const uint64_t Expected = Profile.CpuIterations + Profile.GpuIterations +
                            Hybrid.CpuIterations + Hybrid.GpuIterations +
                            CpuAloneIters + Remaining;
  const bool ExactlyOnce =
      Offset == Profile.CpuIterations + Profile.GpuIterations &&
      Hybrid.CpuIterations + Hybrid.GpuIterations == Remaining &&
      CpuAloneIters == Remaining && Done.load() == Expected;
  std::printf("(every iteration ran exactly once: %s)\n",
              ExactlyOnce ? "yes" : "accounting off");
  return ExactlyOnce ? 0 : 1;
}
