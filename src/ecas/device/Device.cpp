//===-- ecas/device/Device.cpp - Simulated device interface ---------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/device/Device.h"

#include "ecas/support/Assert.h"

#include <algorithm>
#include <cmath>

using namespace ecas;

SimDevice::~SimDevice() = default;

PerfCounters PerfCounters::operator-(const PerfCounters &Rhs) const {
  PerfCounters Delta;
  Delta.InstructionsRetired = InstructionsRetired - Rhs.InstructionsRetired;
  Delta.LoadStores = LoadStores - Rhs.LoadStores;
  Delta.LlcMisses = LlcMisses - Rhs.LlcMisses;
  Delta.IterationsDone = IterationsDone - Rhs.IterationsDone;
  Delta.BytesTransferred = BytesTransferred - Rhs.BytesTransferred;
  Delta.BusySeconds = BusySeconds - Rhs.BusySeconds;
  Delta.SetupSeconds = SetupSeconds - Rhs.SetupSeconds;
  return Delta;
}

double PerfCounters::missPerLoadStore() const {
  return LoadStores > 0.0 ? LlcMisses / LoadStores : 0.0;
}

void SimDevice::enqueue(const KernelCost &Kernel, double Iterations) {
  ECAS_CHECK(Kernel.valid(), "enqueue of malformed kernel descriptor");
  if (Iterations <= 0.0)
    return;
  if (Head == Queue.size()) {
    // Drained ring: rewind and reuse the vector's capacity, so a warmed
    // device enqueues without allocating.
    Head = 0;
    Queue.clear();
  }
  // Amortized: the drained-ring rewind above reuses capacity, so a
  // warmed device appends in place (HotPathTest pins zero allocations).
  // ecas-hotpath: allow(alloc)
  Queue.push_back(
      {Kernel, Iterations, Iterations, setupSeconds(), -1.0, RatePoint()});
}

void SimDevice::popHead() {
  ++Head;
  if (Head == Queue.size()) {
    Head = 0;
    Queue.clear();
  } else if (Head >= 64 && Head * 2 >= Queue.size()) {
    // A queue that never fully drains would otherwise grow without
    // bound; compacting the consumed prefix in place keeps memory
    // proportional to the live items and allocates nothing.
    Queue.erase(Queue.begin(), Queue.begin() + static_cast<long>(Head));
    Head = 0;
  }
}

double SimDevice::pendingIterations() const {
  double Total = 0.0;
  for (size_t I = Head; I != Queue.size(); ++I)
    Total += Queue[I].IterationsLeft;
  return Total;
}

double SimDevice::cancelRemaining() {
  double Unprocessed = pendingIterations();
  Head = 0;
  Queue.clear();
  return Unprocessed;
}

/// Applies the bandwidth cap to an unconstrained rate point, returning the
/// achieved iteration rate and overall stall fraction for power blending.
static void applyBandwidthCap(const RatePoint &Rate, double BytesPerIter,
                              double BandwidthShareGBs, double &EffRate,
                              double &StallFraction) {
  EffRate = Rate.ComputeRate;
  if (BytesPerIter > 0.0 && Rate.BandwidthDemandGBs > BandwidthShareGBs) {
    double BwRate = BandwidthShareGBs * 1e9 / BytesPerIter;
    EffRate = std::min(EffRate, BwRate);
  }
  double IssueShare = Rate.ComputeRate > 0.0 ? EffRate / Rate.ComputeRate : 0.0;
  StallFraction = 1.0 - IssueShare * (1.0 - Rate.LatencyStallFraction);
}

RatePoint SimDevice::itemRate(const WorkItem &Item, double FreqGHz) const {
  if (Item.RateFreqGHz != FreqGHz) {
    Item.Rate = rateModel(Item.Kernel, FreqGHz, Item.InitialIterations);
    Item.RateFreqGHz = FreqGHz;
  }
  return Item.Rate;
}

RatePoint SimDevice::currentRate(double FreqGHz) const {
  if (!busy())
    return RatePoint();
  const WorkItem &Item = head();
  if (Item.SetupSecondsLeft > 0.0)
    return RatePoint(); // Launch overhead: no issue, no traffic.
  return itemRate(Item, FreqGHz);
}

double SimDevice::timeToHeadDrain(double FreqGHz,
                                  double BandwidthShareGBs) const {
  if (!busy())
    return 1e30;
  const WorkItem &Item = head();
  // While in setup the device advertises no bandwidth demand, so the
  // caller's arbitration gave it none; the next schedulable event is the
  // end of setup, after which shares are recomputed.
  if (Item.SetupSecondsLeft > 0.0)
    return Item.SetupSecondsLeft;
  double EffRate, StallFraction;
  applyBandwidthCap(itemRate(Item, FreqGHz), Item.Kernel.BytesPerIter,
                    BandwidthShareGBs, EffRate, StallFraction);
  if (EffRate <= 0.0)
    return 1e30;
  return drainSeconds(Item.IterationsLeft, EffRate);
}

void SimDevice::chargeIterations(const KernelCost &Kernel, double Iterations) {
  Counters.IterationsDone += Iterations;
  Counters.InstructionsRetired += Iterations * Kernel.InstrsPerIter;
  Counters.LoadStores += Iterations * Kernel.LoadStoresPerIter;
  Counters.LlcMisses +=
      Iterations * Kernel.LoadStoresPerIter * Kernel.LlcMissRatio;
  Counters.BytesTransferred += Iterations * Kernel.BytesPerIter;
}

void SimDevice::closeSlice(double ExecSeconds, double Activity,
                           double TrafficGBs) {
  Counters.BusySeconds += ExecSeconds;
  LastActivity = Activity;
  LastTrafficGBs = TrafficGBs;
}

void SimDevice::replaySlice(const KernelCost &Kernel, double Dt,
                            const DeviceSlice &Slice) {
  // advance() ran one phase for all of Dt: a setup phase adds Dt to the
  // setup counter and 0.0 busy seconds; an execution phase charges its
  // iterations and adds 0.0 + Dt busy seconds, which is Dt.
  if (Slice.Setup)
    Counters.SetupSeconds += Dt;
  else
    chargeIterations(Kernel, Slice.Iterations);
  closeSlice(Slice.Setup ? 0.0 : Dt, Slice.Activity, Slice.TrafficGBs);
}

bool SimDevice::canRepeat(double Dt, const DeviceSlice &Slice) const {
  if (Slice.Phases == 0)
    return !busy();
  return Slice.Phases == 1 && !Slice.Setup && !Slice.Drained && busy() &&
         runsUndrained(head().IterationsLeft, Dt, Slice);
}

uint64_t SimDevice::certainRepeats(const DeviceSlice &Slice) const {
  if (Slice.Phases == 0)
    return busy() ? 0 : UINT64_MAX;
  if (Slice.Phases != 1 || Slice.Setup || Slice.Drained || !busy())
    return 0;
  // At most 1024 repeated subtractions drift from the exact difference
  // by under 1.2e-13 of the iterations left, so after k repeats, k below
  // the count, more than 4.9 slices' worth are left: their drain time is
  // above Dt, and with at least 1e-6 iterations a slice the item does not
  // count as drained after the next.
  double Slices = head().IterationsLeft / Slice.Iterations;
  if (!(Slice.Iterations >= 1e-6 && Slices >= 5.0))
    return 0;
  return static_cast<uint64_t>(std::min(Slices, 1028.0)) - 4;
}

void SimDevice::repeatSlice(double Dt, const DeviceSlice &Slice) {
  // An idle slice adds 0.0 busy seconds; an execution slice retires the
  // same iterations from the head item as advance() did, which
  // replaySlice() then charges.
  if (Slice.Phases == 0) {
    closeSlice(0.0, Slice.Activity, Slice.TrafficGBs);
    return;
  }
  WorkItem &Item = head();
  Item.IterationsLeft -= Slice.Iterations;
  replaySlice(Item.Kernel, Dt, Slice);
}

double SimDevice::advance(double Dt, double FreqGHz, double BandwidthShareGBs,
                          DeviceSlice &Record) {
  ECAS_CHECK(Dt >= 0.0, "advance requires non-negative time step");
  const DevicePowerSpec &Power = powerSpec();
  DeviceSlice Slice;
  double Remaining = Dt;
  double ActivityTime = 0.0; // integral of activity over busy time
  double Bytes = 0.0;
  double Consumed = 0.0;
  double ExecSeconds = 0.0;

  while (Remaining > 0.0 && busy()) {
    WorkItem &Item = head();
    if (Item.SetupSecondsLeft > 0.0) {
      double Step = std::min(Remaining, Item.SetupSecondsLeft);
      Item.SetupSecondsLeft -= Step;
      Remaining -= Step;
      Consumed += Step;
      Counters.SetupSeconds += Step;
      ActivityTime += Power.IdleActivity * Step;
      ++Slice.Phases;
      Slice.Setup = true;
      continue;
    }
    double EffRate, StallFraction;
    applyBandwidthCap(itemRate(Item, FreqGHz), Item.Kernel.BytesPerIter,
                      BandwidthShareGBs, EffRate, StallFraction);
    if (EffRate <= 0.0)
      break; // Malformed operating point; refuse to spin forever.
    double TimeToDrain = drainSeconds(Item.IterationsLeft, EffRate);
    double Step = std::min(Remaining, TimeToDrain);
    double Iterations = EffRate * Step;

    Item.IterationsLeft -= Iterations;
    chargeIterations(Item.Kernel, Iterations);
    Bytes += Iterations * Item.Kernel.BytesPerIter;

    double Activity = Power.ComputeActivity * (1.0 - StallFraction) +
                      Power.MemoryActivity * StallFraction;
    ActivityTime += Activity * Step;
    Remaining -= Step;
    Consumed += Step;
    ExecSeconds += Step;
    bool Drained = drainedAfter(Item.IterationsLeft, Iterations);
    ++Slice.Phases;
    Slice.Setup = false;
    Slice.Drained = Drained;
    Slice.Iterations = Iterations;
    Slice.EffRate = EffRate;
    if (Drained)
      popHead();
  }

  if (Consumed > 0.0)
    closeSlice(ExecSeconds, ActivityTime / Consumed, Bytes / Consumed / 1e9);
  else
    closeSlice(ExecSeconds, Power.IdleActivity, 0.0);
  Slice.Activity = LastActivity;
  Slice.TrafficGBs = LastTrafficGBs;
  Record = Slice;
  return Consumed;
}
