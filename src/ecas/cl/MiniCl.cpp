//===-- ecas/cl/MiniCl.cpp - OpenCL-style host execution layer ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/cl/MiniCl.h"

#include "ecas/device/KernelDesc.h"
#include "ecas/support/Assert.h"
#include "ecas/support/Format.h"

#include <chrono>
#include <limits>

using namespace ecas;
using namespace ecas::cl;

const char *ecas::cl::statusName(Status S) {
  switch (S) {
  case Status::Success:
    return "success";
  case Status::InvalidKernel:
    return "invalid kernel";
  case Status::InvalidRange:
    return "invalid range";
  case Status::DeviceUnavailable:
    return "device unavailable";
  case Status::Cancelled:
    return "cancelled";
  }
  ECAS_UNREACHABLE("unknown status");
}

static double hostSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

MiniKernel::MiniKernel(std::string NameIn, RangeBody BodyIn)
    : Name(std::move(NameIn)), Body(std::move(BodyIn)),
      Id(hashKernelName(Name)) {}

//===----------------------------------------------------------------------===//
// MiniEvent
//===----------------------------------------------------------------------===//

struct MiniEvent::State {
  /// Leaf lock of the MiniCl hierarchy: no other lock is acquired while
  /// an event's mutex is held.
  mutable AnnotatedMutex Mutex{"MiniCl.Event"};
  mutable std::condition_variable Done;
  CommandState Stage ECAS_GUARDED_BY(Mutex) = CommandState::Queued;
  Status Result ECAS_GUARDED_BY(Mutex) = Status::Success;
  double QueuedAt ECAS_GUARDED_BY(Mutex) = 0.0;
  double SubmitAt ECAS_GUARDED_BY(Mutex) = 0.0;
  double StartAt ECAS_GUARDED_BY(Mutex) = 0.0;
  double EndAt ECAS_GUARDED_BY(Mutex) = 0.0;

  void advance(CommandState Next, double Timestamp) {
    LockGuard Lock(Mutex);
    Stage = Next;
    switch (Next) {
    case CommandState::Queued:
      QueuedAt = Timestamp;
      break;
    case CommandState::Submitted:
      SubmitAt = Timestamp;
      break;
    case CommandState::Running:
      StartAt = Timestamp;
      break;
    case CommandState::Complete:
      EndAt = Timestamp;
      break;
    }
    if (Next == CommandState::Complete)
      Done.notify_all();
  }

  /// Records a failure verdict; kept separate from advance() so no
  /// caller ever touches Result outside the event lock.
  void fail(Status Verdict) {
    LockGuard Lock(Mutex);
    Result = Verdict;
  }
};

void MiniEvent::wait() const {
  ECAS_CHECK(Shared != nullptr, "waiting on a null event");
  // Explicit wait loops keep the guarded reads inside the scope that
  // visibly holds the capability.
  UniqueLock Lock(Shared->Mutex);
  while (Shared->Stage != CommandState::Complete)
    Shared->Done.wait(Lock.native());
}

cl::Status MiniEvent::waitStatus() const {
  ECAS_CHECK(Shared != nullptr, "waiting on a null event");
  UniqueLock Lock(Shared->Mutex);
  while (Shared->Stage != CommandState::Complete)
    Shared->Done.wait(Lock.native());
  return Shared->Result;
}

cl::Status MiniEvent::waitStatus(const CancellationToken &Cancel,
                             double PollSec) const {
  ECAS_CHECK(Shared != nullptr, "waiting on a null event");
  if (PollSec <= 0.0)
    PollSec = 1e-3;
  UniqueLock Lock(Shared->Mutex);
  while (Shared->Stage != CommandState::Complete) {
    if (Cancel.shouldStop(hostSeconds()))
      return Status::Cancelled;
    Shared->Done.wait_for(Lock.native(),
                          std::chrono::duration<double>(PollSec));
  }
  return Shared->Result;
}

CommandState MiniEvent::state() const {
  ECAS_CHECK(Shared != nullptr, "querying a null event");
  LockGuard Lock(Shared->Mutex);
  return Shared->Stage;
}

cl::Status MiniEvent::status() const {
  ECAS_CHECK(Shared != nullptr, "querying a null event");
  LockGuard Lock(Shared->Mutex);
  return Shared->Result;
}

// The timestamp accessors take the event lock: annotating the fields
// surfaced that these reads were bare, which is a data race when a
// profiler polls an event the queue worker is still advancing.
double MiniEvent::queuedSeconds() const {
  LockGuard Lock(Shared->Mutex);
  return Shared->QueuedAt;
}
double MiniEvent::submitSeconds() const {
  LockGuard Lock(Shared->Mutex);
  return Shared->SubmitAt;
}
double MiniEvent::startSeconds() const {
  LockGuard Lock(Shared->Mutex);
  return Shared->StartAt;
}
double MiniEvent::endSeconds() const {
  LockGuard Lock(Shared->Mutex);
  return Shared->EndAt;
}

double MiniEvent::executionSeconds() const {
  LockGuard Lock(Shared->Mutex);
  if (Shared->Stage != CommandState::Complete)
    return 0.0;
  return Shared->EndAt - Shared->StartAt;
}

double MiniEvent::overheadSeconds() const {
  LockGuard Lock(Shared->Mutex);
  if (Shared->Stage != CommandState::Complete)
    return 0.0;
  return Shared->StartAt - Shared->QueuedAt;
}

//===----------------------------------------------------------------------===//
// CommandQueue
//===----------------------------------------------------------------------===//

struct CommandQueue::Command {
  RangeBody Body;
  uint64_t Begin = 0;
  uint64_t End = 0;
  /// QUEUED timestamp, duplicated from the event so the worker can
  /// publish the lifecycle spans without re-taking the event lock.
  double QueuedAt = 0.0;
  std::shared_ptr<MiniEvent::State> Event;
};

CommandQueue::CommandQueue(
    std::string DeviceNameIn,
    std::function<void(const RangeBody &, uint64_t, uint64_t)> DispatchIn,
    double DispatchLatencySecIn)
    : DeviceName(std::move(DeviceNameIn)), Dispatch(std::move(DispatchIn)),
      DispatchLatencySec(DispatchLatencySecIn) {
  ECAS_CHECK(static_cast<bool>(Dispatch), "queue requires a dispatcher");
  Worker = std::thread([this] { workerLoop(); });
}

CommandQueue::~CommandQueue() {
  {
    LockGuard Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  if (Worker.joinable())
    Worker.join();
}

MiniEvent CommandQueue::enqueue(const MiniKernel &Kernel, uint64_t Begin,
                                uint64_t End) {
  MiniEvent Event;
  Event.Shared = std::make_shared<MiniEvent::State>();
  double Now = hostSeconds();
  {
    // The event is not yet visible to any other thread, but the guard
    // keeps every access to guarded state uniform.
    LockGuard Lock(Event.Shared->Mutex);
    Event.Shared->QueuedAt = Now;
  }

  // Immediate-error events complete synchronously, like clEnqueue*
  // returning an error code.
  if (!Kernel.valid()) {
    Event.Shared->fail(Status::InvalidKernel);
    Event.Shared->advance(CommandState::Complete, Now);
    return Event;
  }
  if (End <= Begin) {
    Event.Shared->fail(Status::InvalidRange);
    Event.Shared->advance(CommandState::Complete, Now);
    return Event;
  }

  auto Cmd = std::make_unique<Command>();
  Cmd->Body = Kernel.body();
  Cmd->Begin = Begin;
  Cmd->End = End;
  Cmd->QueuedAt = Now;
  Cmd->Event = Event.Shared;
  {
    LockGuard Lock(Mutex);
    if (ShuttingDown) {
      Event.Shared->fail(Status::DeviceUnavailable);
      Event.Shared->advance(CommandState::Complete, hostSeconds());
      return Event;
    }
    Pending.push_back(std::move(Cmd));
  }
  WorkAvailable.notify_one();
  return Event;
}

void CommandQueue::finish() {
  UniqueLock Lock(Mutex);
  while (!(Pending.empty() && InFlight == 0))
    QueueDrained.wait(Lock.native());
}

uint64_t CommandQueue::commandsCompleted() const {
  LockGuard Lock(Mutex);
  return Completed;
}

void CommandQueue::setFaultHook(std::function<Status()> Hook) {
  LockGuard Lock(Mutex);
  FaultHook = std::move(Hook);
}

uint64_t CommandQueue::commandsFailed() const {
  LockGuard Lock(Mutex);
  return Failed;
}

uint64_t CommandQueue::cancelPending() {
  std::deque<std::unique_ptr<Command>> Flushed;
  {
    LockGuard Lock(Mutex);
    Flushed.swap(Pending);
    Failed += Flushed.size();
    if (InFlight == 0)
      QueueDrained.notify_all();
  }
  // Complete the flushed events outside the queue lock: waiters run
  // arbitrary code when released.
  for (auto &Cmd : Flushed) {
    Cmd->Event->fail(Status::Cancelled);
    Cmd->Event->advance(CommandState::Complete, hostSeconds());
  }
  return Flushed.size();
}

void CommandQueue::workerLoop() {
  while (true) {
    std::unique_ptr<Command> Cmd;
    std::function<Status()> Hook;
    {
      UniqueLock Lock(Mutex);
      while (!ShuttingDown && Pending.empty())
        WorkAvailable.wait(Lock.native());
      if (Pending.empty()) {
        // Shutting down with an empty queue.
        QueueDrained.notify_all();
        return;
      }
      Cmd = std::move(Pending.front());
      Pending.pop_front();
      ++InFlight;
      Hook = FaultHook;
    }

    double SubmitAt = hostSeconds();
    Cmd->Event->advance(CommandState::Submitted, SubmitAt);
    Status Verdict = Hook ? Hook() : Status::Success;
    double StartAt = 0.0;
    if (Verdict == Status::Success) {
      if (DispatchLatencySec > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(DispatchLatencySec));
      StartAt = hostSeconds();
      Cmd->Event->advance(CommandState::Running, StartAt);
      Dispatch(Cmd->Body, Cmd->Begin, Cmd->End);
    } else {
      // The device refused the command: complete the event with the
      // error so waiters observe the failure instead of deadlocking.
      Cmd->Event->fail(Verdict);
    }
    // Settle the counters before publishing completion: a waiter released
    // by the Complete transition must already see this command counted.
    {
      LockGuard Lock(Mutex);
      if (Verdict == Status::Success)
        ++Completed;
      else
        ++Failed;
    }
    double EndAt = hostSeconds();

    // Publish the settled lifecycle outside every lock (the recorder's
    // registration mutex is a leaf and must stay one), and before the
    // Complete transition: a waiter released by it may detach the recorder
    // at once and must already find this command's spans recorded.
    if (obs::TraceRecorder *T = Trace.load(std::memory_order_acquire)) {
      std::string Range = formatString(
          "%s [%llu,%llu)", DeviceName.c_str(),
          static_cast<unsigned long long>(Cmd->Begin),
          static_cast<unsigned long long>(Cmd->End));
      if (Verdict == Status::Success) {
        T->completeSpan("minicl", "queue-wait", Cmd->QueuedAt,
                        StartAt - Cmd->QueuedAt,
                        std::numeric_limits<double>::quiet_NaN(), Range);
        T->completeSpan("minicl", "exec", StartAt, EndAt - StartAt,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::move(Range));
        T->count("minicl.commands");
      } else {
        T->instant("minicl", "launch-failed",
                   std::numeric_limits<double>::quiet_NaN(),
                   Range + " " + statusName(Verdict));
        T->count("minicl.launch_failures");
      }
    }
    Cmd->Event->advance(CommandState::Complete, EndAt);

    {
      LockGuard Lock(Mutex);
      --InFlight;
      if (Pending.empty() && InFlight == 0)
        QueueDrained.notify_all();
    }
  }
}

//===----------------------------------------------------------------------===//
// MiniContext
//===----------------------------------------------------------------------===//

MiniContext::MiniContext(unsigned CpuThreads, GpuExecutor GpuHook,
                         double GpuDispatchLatencySec)
    : Pool(CpuThreads) {
  Cpu = std::make_unique<CommandQueue>(
      "cpu",
      [this](const RangeBody &Body, uint64_t Begin, uint64_t End) {
        Pool.parallelFor(Begin, End, /*Grain=*/256, Body);
      },
      /*DispatchLatencySec=*/0.0);
  if (!GpuHook) {
    // Thread-backed stand-in: the queue's worker thread runs the body
    // directly, standing in for a driver dispatch.
    GpuHook = [](uint64_t, uint64_t) {};
    Gpu = std::make_unique<CommandQueue>(
        "gpu",
        [](const RangeBody &Body, uint64_t Begin, uint64_t End) {
          Body(Begin, End);
        },
        GpuDispatchLatencySec);
  } else {
    Gpu = std::make_unique<CommandQueue>(
        "gpu",
        [Hook = std::move(GpuHook)](const RangeBody &Body, uint64_t Begin,
                                    uint64_t End) { Hook(Begin, End); },
        GpuDispatchLatencySec);
  }
}

std::pair<MiniEvent, MiniEvent>
MiniContext::runPartitioned(const MiniKernel &Kernel, uint64_t N,
                            double Alpha, const CancellationToken *Cancel) {
  ECAS_CHECK(Alpha >= 0.0 && Alpha <= 1.0, "alpha must be in [0,1]");
  uint64_t GpuIters = static_cast<uint64_t>(Alpha * static_cast<double>(N));
  uint64_t CpuEnd = N - GpuIters;
  MiniEvent GpuEvent = Gpu->enqueue(Kernel, CpuEnd, N);
  MiniEvent CpuEvent = Cpu->enqueue(Kernel, 0, CpuEnd);
  if (CpuEnd > 0) {
    if (Cancel)
      CpuEvent.waitStatus(*Cancel);
    else
      CpuEvent.wait();
  }
  if (GpuIters > 0) {
    Status GpuStatus =
        Cancel ? GpuEvent.waitStatus(*Cancel) : GpuEvent.waitStatus();
    if (GpuStatus == Status::Cancelled)
      // The waiter gave up; do not pile a CPU fallback onto a run the
      // caller is abandoning.
      return {CpuEvent, GpuEvent};
    if (GpuStatus != Status::Success) {
      // The GPU refused its share; rerun it on the CPU so the partition
      // still covers all of [0, N).
      GpuFallbacks.fetch_add(1, std::memory_order_relaxed);
      MiniEvent Fallback = Cpu->enqueue(Kernel, CpuEnd, N);
      if (Cancel)
        Fallback.waitStatus(*Cancel);
      else
        Fallback.wait();
      return {CpuEvent, Fallback};
    }
  }
  return {CpuEvent, GpuEvent};
}
