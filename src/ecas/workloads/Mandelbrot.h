//===-- ecas/workloads/Mandelbrot.h - MB fractal workload -------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mandelbrot set rasterization (Table 1 row MB): per-pixel escape-time
/// iteration with input-dependent trip counts — the canonical "irregular
/// but embarrassingly parallel" workload.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_WORKLOADS_MANDELBROT_H
#define ECAS_WORKLOADS_MANDELBROT_H

#include "ecas/workloads/Workload.h"

#include <cstdint>
#include <vector>

namespace ecas {

/// Renders escape-time counts for a WidthxHeight raster of the region
/// [-2.2, 1.0] x [-1.28, 1.28] with at most \p MaxIter iterations.
/// \p Out is resized to Width*Height.
void renderMandelbrot(uint32_t Width, uint32_t Height, uint32_t MaxIter,
                      std::vector<uint16_t> &Out);

/// Table 1 row MB: 7680x6144 image, one kernel invocation.
Workload makeMandelbrotWorkload(const WorkloadConfig &Config);

} // namespace ecas

#endif // ECAS_WORKLOADS_MANDELBROT_H
