//===-- ecas/workloads/Registry.h - Benchmark suites ------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the Table 1 benchmark suites: the twelve desktop workloads
/// and the seven that run on the tablet (the rest fail to build on the
/// paper's 32-bit toolchain).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_WORKLOADS_REGISTRY_H
#define ECAS_WORKLOADS_REGISTRY_H

#include "ecas/workloads/Workload.h"

#include <vector>

namespace ecas {

/// The eight Table 1 workloads whose traces are analytic: a calibrated
/// KernelDesc plus the invocation shape of the paper's input. The
/// black-box scheduler sees a kernel only through these, so no algorithm
/// body backs them. The graph workloads (GraphWorkloads.h) derive their
/// traces from running the real algorithm, and MB (Mandelbrot.h) also
/// renders on the host.
///
/// Table 1 row BH: 1M bodies, 1 step, 1 kernel invocation (desktop).
Workload makeBarnesHutWorkload(const WorkloadConfig &Config);
/// Table 1 row BS: 64K options x 2000 invocations (desktop) or 2.62M
/// options (tablet input).
Workload makeBlackScholesWorkload(const WorkloadConfig &Config);
/// Table 1 row FD: 132 invocations (stages x scales), compute-bound,
/// CPU-biased. The survivor count of a window cascade over the 3000x2171
/// Solvay-1927 photograph decays geometrically per stage.
Workload makeFaceDetectWorkload(const WorkloadConfig &Config);
/// Table 1 row MM: 2048x2048 (desktop), 1024x1024 (tablet), one launch.
Workload makeMatrixMultiplyWorkload(const WorkloadConfig &Config);
/// Table 1 row NB: 4096 bodies (desktop) / 1024 (tablet), 101 steps.
Workload makeNBodyWorkload(const WorkloadConfig &Config);
/// Table 1 row RT: 256 spheres / 3 materials / 5 lights (desktop);
/// 225 spheres on the tablet. One launch over a 1920x1080 frame.
Workload makeRayTracerWorkload(const WorkloadConfig &Config);
/// Table 1 row SM: 1950x1326 grid, 100 frames (both platforms).
Workload makeSeismicWorkload(const WorkloadConfig &Config);
/// Table 1 row SL: 500M keys (desktop) / 45M (tablet), one invocation.
Workload makeSkipListWorkload(const WorkloadConfig &Config);

/// All twelve workloads with the desktop inputs of Table 1.
std::vector<Workload> desktopSuite(const WorkloadConfig &Config = {});

/// The seven tablet workloads (MB, SL, BS, MM, NB, RT, SM) with the
/// tablet inputs of Table 1.
std::vector<Workload> tabletSuite(WorkloadConfig Config = {});

/// Finds a workload by abbreviation ("CC", "bs", ...); returns nullptr
/// when absent.
const Workload *findWorkload(const std::vector<Workload> &Suite,
                             const std::string &Abbrev);

} // namespace ecas

#endif // ECAS_WORKLOADS_REGISTRY_H
