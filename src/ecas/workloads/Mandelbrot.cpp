//===-- ecas/workloads/Mandelbrot.cpp - MB fractal workload ---------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/workloads/Mandelbrot.h"

#include "ecas/support/Assert.h"

#include <cmath>

using namespace ecas;

void ecas::renderMandelbrot(uint32_t Width, uint32_t Height,
                            uint32_t MaxIter, std::vector<uint16_t> &Out) {
  ECAS_CHECK(Width > 0 && Height > 0, "raster must be non-empty");
  ECAS_CHECK(MaxIter <= 65535, "escape counts stored as uint16");
  Out.assign(static_cast<size_t>(Width) * Height, 0);
  const double X0 = -2.2, X1 = 1.0, Y0 = -1.28, Y1 = 1.28;
  for (uint32_t Py = 0; Py != Height; ++Py) {
    double Ci = Y0 + (Y1 - Y0) * Py / Height;
    for (uint32_t Px = 0; Px != Width; ++Px) {
      double Cr = X0 + (X1 - X0) * Px / Width;
      double Zr = 0.0, Zi = 0.0;
      uint32_t Iter = 0;
      while (Iter < MaxIter && Zr * Zr + Zi * Zi <= 4.0) {
        double NewZr = Zr * Zr - Zi * Zi + Cr;
        Zi = 2.0 * Zr * Zi + Ci;
        Zr = NewZr;
        ++Iter;
      }
      Out[static_cast<size_t>(Py) * Width + Px] =
          static_cast<uint16_t>(Iter);
    }
  }
}

Workload ecas::makeMandelbrotWorkload(const WorkloadConfig &Config) {
  KernelDesc Kernel;
  Kernel.Name = "mb.escape";
  // The escape loop averages ~160 trips of ~10 cycles per pixel.
  Kernel.CpuCyclesPerIter = 2300.0;
  Kernel.GpuCyclesPerIter = 2000.0;
  Kernel.BytesPerIter = 24.0;
  Kernel.LoadStoresPerIter = 6.0;
  Kernel.LlcMissRatio = 0.35;
  Kernel.InstrsPerIter = 1700.0;
  Kernel.GpuEfficiency = 0.50; // Divergent escape-time trip counts.
  Kernel.CpuVectorizable = 0.50;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Mandelbrot";
  W.Abbrev = "MB";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Long;
  W.ExpectedGpu = DurationClass::Long;
  W.OnTablet = true; // Same 7680x6144 input on both platforms (Table 1).
  W.Trace = {{Kernel, 7680.0 * 6144.0}};
  return W;
}
