//===-- ecas/obs/Trace.cpp - Drained event logs and their summary ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/Trace.h"

#include "ecas/support/Format.h"

#include <map>

using namespace ecas;
using namespace ecas::obs;

std::string ecas::obs::renderTraceSummary(const TraceLog &Log) {
  // Pair begin/end per (thread, name) by nesting order to charge each
  // span its host-clock duration; SpanComplete events carry theirs.
  struct SpanStats {
    uint64_t Count = 0;
    double TotalSeconds = 0.0;
  };
  std::map<std::string, SpanStats> Spans;
  std::map<std::string, uint64_t> Instants;
  std::map<std::pair<uint32_t, std::string>, std::vector<double>> Open;
  for (const TraceEvent &E : Log.Events) {
    switch (E.Kind) {
    case EventKind::SpanBegin:
      Open[{E.ThreadId, E.Name}].push_back(E.HostSeconds);
      break;
    case EventKind::SpanEnd: {
      auto &Stack = Open[{E.ThreadId, E.Name}];
      SpanStats &S = Spans[E.Name];
      ++S.Count;
      if (!Stack.empty()) {
        S.TotalSeconds += E.HostSeconds - Stack.back();
        Stack.pop_back();
      }
      break;
    }
    case EventKind::SpanComplete: {
      SpanStats &S = Spans[E.Name];
      ++S.Count;
      S.TotalSeconds += E.Value;
      break;
    }
    case EventKind::Instant:
      ++Instants[E.Name];
      break;
    case EventKind::Counter:
      break;
    }
  }

  std::string Out;
  Out += formatString("trace summary: %zu events\n", Log.Events.size());
  if (!Spans.empty()) {
    Out += "  spans:\n";
    for (const auto &[Name, S] : Spans)
      Out += formatString("    %-24s x%-8llu %s\n", Name.c_str(),
                          static_cast<unsigned long long>(S.Count),
                          formatDuration(S.TotalSeconds).c_str());
  }
  if (!Instants.empty()) {
    Out += "  instants:\n";
    for (const auto &[Name, N] : Instants)
      Out += formatString("    %-24s x%llu\n", Name.c_str(),
                          static_cast<unsigned long long>(N));
  }
  if (!Log.Counters.empty()) {
    Out += "  counters:\n";
    for (const CounterTotal &C : Log.Counters)
      Out += formatString("    %-24s %.6g (%llu samples)\n", C.Name.c_str(),
                          C.Total,
                          static_cast<unsigned long long>(C.Samples));
  }
  return Out;
}
