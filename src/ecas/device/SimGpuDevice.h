//===-- ecas/device/SimGpuDevice.h - GPU throughput model ------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integrated-GPU model: EU-lane throughput derated by the kernel's
/// divergence efficiency and by occupancy when the pending work can't
/// fill the machine (EUs x threads/EU x SIMD lanes). Latency is assumed
/// hidden by multithreading; memory pressure surfaces only through the
/// shared-bandwidth cap. Each enqueue pays a fixed launch latency,
/// modeling the driver/dispatch path of a real OpenCL stack.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_DEVICE_SIMGPUDEVICE_H
#define ECAS_DEVICE_SIMGPUDEVICE_H

#include "ecas/device/Device.h"

namespace ecas {

/// Simulated integrated-GPU side of the package.
class SimGpuDevice : public SimDevice {
public:
  explicit SimGpuDevice(const PlatformSpec &Spec)
      : SimDevice(DeviceKind::Gpu), Spec(Spec) {}

  /// Fault-injection hook: multiplies the modeled throughput (and the
  /// bandwidth it demands) by \p Scale. 1 is nominal; 0 models a hung
  /// device that accepts work but retires nothing. Set by SimProcessor
  /// each step from the active fault plan.
  void setThroughputDerate(double Scale) {
    if (Scale != Derate) {
      Derate = Scale;
      invalidateRate();
    }
  }
  double throughputDerate() const { return Derate; }

protected:
  RatePoint rateModel(const KernelCost &Kernel, double FreqGHz,
                      double PendingIters) const override;
  const DevicePowerSpec &powerSpec() const override {
    return Spec.GpuPower;
  }
  double setupSeconds() const override { return Spec.Gpu.LaunchLatencySec; }

private:
  const PlatformSpec &Spec;
  double Derate = 1.0;
};

} // namespace ecas

#endif // ECAS_DEVICE_SIMGPUDEVICE_H
