//===-- ecas/obs/FlightRecorder.cpp - The one event recorder --------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/FlightRecorder.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <type_traits>

using namespace ecas;
using namespace ecas::obs;

namespace {

/// Process-wide recorder identity source.
uint64_t nextRecorderId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

constexpr uint32_t NoDetail = std::numeric_limits<uint32_t>::max();

/// One ring slot. The recording thread's id belongs to the ring and the
/// Detail text to the ring's side store, so the slot is a flat copy
/// whose size sets the bounded rings' footprint: 4096 slots per
/// recording thread, counted in every armed service's heap.
struct Slot {
  const char *Category;
  const char *Name;
  double HostSeconds;
  double VirtualSeconds;
  double Value;
  uint64_t Seq;
  /// Index into the ring's side store, or NoDetail.
  uint32_t DetailIndex;
  EventKind Kind;
};
static_assert(std::is_trivially_copyable_v<Slot> &&
                  std::is_standard_layout_v<Slot>,
              "a ring slot must be POD: recording copies it under a lock");
static_assert(sizeof(Slot) <= 56,
              "a larger slot grows every bounded ring (heap_mb)");

} // namespace

/// One thread's ring. A bounded ring's storage is reserved once at
/// registration and never grows; push() appends until full, then
/// overwrites the slot at Next % capacity, all under the ring's own leaf
/// mutex. The mutex is what makes overwrite-oldest sound: a drain can
/// copy a slot that a wrapped writer is about to reuse. Uncontended
/// lock/unlock allocates nothing, so the armed hot path stays
/// heap-silent. A capture ring (Unbounded) appends forever and keeps
/// each non-empty Detail in its side store.
struct FlightRecorder::ThreadRing {
  ThreadRing(uint32_t Id, size_t CapIn) : ThreadId(Id), Cap(CapIn) {
    if (Cap != Unbounded)
      Slots.reserve(Cap);
  }

  void push(Slot S, std::string_view Detail) {
    LockGuard Lock(Mutex);
    S.DetailIndex = NoDetail;
    if (Cap == Unbounded && !Detail.empty()) {
      S.DetailIndex = static_cast<uint32_t>(Details.size());
      Details.emplace_back(Detail);
    }
    if (Slots.size() < Cap)
      Slots.push_back(S);
    else
      Slots[static_cast<size_t>(Next % Cap)] = S;
    ++Next;
  }

  /// Appends the resident slots (oldest first) to \p Out and the
  /// overwrite count to \p Dropped.
  void snapshot(std::vector<TraceEvent> &Out, uint64_t &Dropped) const {
    LockGuard Lock(Mutex);
    const uint64_t Resident = Slots.size();
    Dropped += Next - Resident;
    for (uint64_t I = 0; I != Resident; ++I) {
      const Slot &S = Slots[static_cast<size_t>((Next - Resident + I) %
                                                Resident)];
      TraceEvent &E = Out.emplace_back();
      E.Kind = S.Kind;
      E.Category = S.Category;
      E.Name = S.Name;
      E.HostSeconds = S.HostSeconds;
      E.VirtualSeconds = S.VirtualSeconds;
      E.Value = S.Value;
      E.ThreadId = ThreadId;
      E.Seq = S.Seq;
      if (S.DetailIndex != NoDetail)
        E.Detail = Details[S.DetailIndex];
    }
  }

  const uint32_t ThreadId;
  const size_t Cap;
  /// Leaf lock: nothing else is ever acquired while it is held.
  mutable AnnotatedMutex Mutex{"Obs.FlightRing"};
  std::vector<Slot> Slots ECAS_GUARDED_BY(Mutex);
  std::vector<std::string> Details ECAS_GUARDED_BY(Mutex);
  uint64_t Next ECAS_GUARDED_BY(Mutex) = 0;
};

double FlightRecorder::hostSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

FlightRecorder::FlightRecorder(size_t EventsPerThread, size_t DecisionCapacity)
    : RecorderId(nextRecorderId()), Epoch(hostSeconds()),
      EventCap(std::max<size_t>(EventsPerThread, 1)),
      DecisionCap(std::max<size_t>(DecisionCapacity, 1)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::ThreadRing &FlightRecorder::localRing() {
  struct CacheEntry {
    uint64_t RecorderId;
    ThreadRing *Ring;
  };
  // One slot per (thread, recorder) pair this thread has recorded into;
  // scanning a handful of entries beats a mutex on every record. Keyed
  // on the never-reused RecorderId, so a destroyed recorder's entry can
  // never alias a new recorder at the same address.
  thread_local std::vector<CacheEntry> Cache;
  for (const CacheEntry &Entry : Cache)
    if (Entry.RecorderId == RecorderId)
      return *Entry.Ring;

  LockGuard Lock(RegistryMutex);
  auto Ring = std::make_unique<ThreadRing>(
      static_cast<uint32_t>(Rings.size()), EventCap);
  ThreadRing &Ref = *Ring;
  Rings.push_back(std::move(Ring));
  Cache.push_back({RecorderId, &Ref});
  return Ref;
}

void FlightRecorder::record(EventKind Kind, const char *Category,
                            const char *Name, double HostSec, VirtualTime At,
                            double Value, std::string_view Detail) {
  ThreadRing &Ring = localRing();
  Slot S;
  S.Kind = Kind;
  S.Category = Category;
  S.Name = Name;
  S.HostSeconds = HostSec;
  S.VirtualSeconds = At.Seconds;
  S.Value = Value;
  S.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  Ring.push(S, Detail);
}

void FlightRecorder::beginSpan(const char *Category, const char *Name,
                               VirtualTime At, std::string_view Detail) {
  record(EventKind::SpanBegin, Category, Name, hostSeconds(), At, 0.0,
         Detail);
}

void FlightRecorder::endSpan(const char *Category, const char *Name,
                             VirtualTime At, std::string_view Detail) {
  record(EventKind::SpanEnd, Category, Name, hostSeconds(), At, 0.0,
         Detail);
}

void FlightRecorder::completeSpan(const char *Category, const char *Name,
                                  double StartHostSec, double DurationSec,
                                  VirtualTime At, std::string_view Detail) {
  record(EventKind::SpanComplete, Category, Name, StartHostSec, At,
         DurationSec, Detail);
}

void FlightRecorder::instant(const char *Category, const char *Name,
                             VirtualTime At, std::string_view Detail,
                             double Value) {
  record(EventKind::Instant, Category, Name, hostSeconds(), At, Value,
         Detail);
}

void FlightRecorder::count(const char *Name, double Delta) {
  record(EventKind::Counter, "counter", Name, hostSeconds(), VirtualTime(),
         Delta, {});
}

void FlightRecorder::recordDecision(const DecisionRecord &Record) {
  LockGuard Lock(DecisionMutex);
  if (DecisionRing.size() < DecisionCap) {
    // Growth phase: reserve the full ring up front so the steady state
    // (the phase HotPathTest measures after warmup) never reallocates.
    if (DecisionRing.capacity() < DecisionCap)
      DecisionRing.reserve(DecisionCap);
    DecisionRing.push_back(Record);
    DecisionRing.back().Sequence = NextDecision;
  } else {
    DecisionRecord &Slot =
        DecisionRing[static_cast<size_t>(NextDecision % DecisionCap)];
    Slot = Record;
    Slot.Sequence = NextDecision;
  }
  ++NextDecision;
}

FlightSnapshot FlightRecorder::drain() const {
  FlightSnapshot Snap;
  TraceLog &Log = Snap.Trace;
  Log.EpochHostSeconds = Epoch;
  {
    LockGuard Lock(RegistryMutex);
    for (const std::unique_ptr<ThreadRing> &Ring : Rings)
      Ring->snapshot(Log.Events, Snap.EventsDropped);
  }
  Snap.EventsRecorded = NextSeq.load(std::memory_order_relaxed);
  std::sort(Log.Events.begin(), Log.Events.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.HostSeconds != B.HostSeconds)
                return A.HostSeconds < B.HostSeconds;
              return A.Seq < B.Seq;
            });

  // Counter totals over the drained events. A bounded ring's overwritten
  // deltas are gone for good — the point of a flight recorder is the
  // recent window, not lifetime accounting; lifetime counts live in the
  // MetricsRegistry.
  std::map<std::string, CounterTotal> Totals;
  for (const TraceEvent &E : Log.Events) {
    if (E.Kind != EventKind::Counter)
      continue;
    CounterTotal &C = Totals[E.Name];
    C.Name = E.Name;
    C.Total += E.Value;
    ++C.Samples;
  }
  Log.Counters.reserve(Totals.size());
  for (auto &[Name, Total] : Totals)
    Log.Counters.push_back(std::move(Total));

  {
    LockGuard Lock(DecisionMutex);
    Snap.DecisionsRecorded = NextDecision;
    const uint64_t Resident =
        std::min<uint64_t>(NextDecision, DecisionRing.size());
    Snap.DecisionsDropped = NextDecision - Resident;
    Snap.Decisions.reserve(static_cast<size_t>(Resident));
    for (uint64_t I = 0; I != Resident; ++I)
      Snap.Decisions.push_back(DecisionRing[static_cast<size_t>(
          (NextDecision - Resident + I) % DecisionRing.size())]);
  }
  return Snap;
}

//===----------------------------------------------------------------------===//
// ScopedSpan
//===----------------------------------------------------------------------===//

ScopedSpan::ScopedSpan(FlightRecorder *RecorderIn, const char *CategoryIn,
                       const char *NameIn, std::function<double()> VirtualNowIn,
                       std::string BeginDetail)
    : Recorder(RecorderIn), Category(CategoryIn), Name(NameIn),
      VirtualNow(std::move(VirtualNowIn)) {
  if (Recorder)
    Recorder->beginSpan(Category, Name, now(), std::move(BeginDetail));
}

ScopedSpan::~ScopedSpan() {
  if (Recorder)
    Recorder->endSpan(Category, Name, now(), std::move(EndDetail));
}
