//===-- ecas/power/PowerCurve.cpp - Characterization functions ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/power/PowerCurve.h"

#include "ecas/support/Assert.h"
#include "ecas/support/Format.h"

#include <algorithm>
#include <cmath>

using namespace ecas;

double PowerCurve::powerAt(double Alpha) const {
  double Watts = Poly.evaluate(Alpha);
  // std::max(NaN, floor) returns NaN, so a curve fitted through glitched
  // measurements needs an explicit finiteness gate before the clamp.
  if (!std::isfinite(Watts))
    return 1e-3;
  return std::max(Watts, 1e-3);
}

void PowerCurveSet::setCurve(PowerCurve Curve) {
  unsigned Index = Curve.Class.index();
  Curves[Index] = std::move(Curve);
  Present[Index] = true;
}

bool PowerCurveSet::hasCurve(WorkloadClass Class) const {
  return Present[Class.index()];
}

const PowerCurve &PowerCurveSet::curveFor(WorkloadClass Class) const {
  ECAS_CHECK(hasCurve(Class), "no power curve for requested class");
  return Curves[Class.index()];
}

bool PowerCurveSet::complete() const {
  return std::all_of(Present.begin(), Present.end(),
                     [](bool Filled) { return Filled; });
}

std::string PowerCurveSet::serialize() const {
  std::string Out = formatString("platform = %s\n", Platform.c_str());
  for (unsigned Index = 0; Index != WorkloadClass::NumClasses; ++Index) {
    if (!Present[Index])
      continue;
    const PowerCurve &Curve = Curves[Index];
    Out += formatString("curve %u =", Index);
    for (double Coefficient : Curve.Poly.coefficients())
      Out += formatString(" %.17g", Coefficient);
    Out += formatString(" r2 %.17g\n", Curve.RSquared);
  }
  return Out;
}

ErrorOr<PowerCurveSet> PowerCurveSet::load(const std::string &Text,
                                           bool RequireComplete) {
  PowerCurveSet Set;
  unsigned LineNo = 0;
  for (const std::string &Line : splitString(Text, '\n')) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    auto Fail = [LineNo](ErrCode Code, const std::string &Msg) {
      return Status::error(Code,
                           formatString("line %u: %s", LineNo, Msg.c_str()));
    };
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return Fail(ErrCode::ParseError, "expected 'key = value'");
    std::string Key = trimString(Line.substr(0, Eq));
    std::string Value = trimString(Line.substr(Eq + 1));
    if (Key == "platform") {
      Set.Platform = Value;
      continue;
    }
    if (Key.rfind("curve ", 0) != 0)
      return Fail(ErrCode::ParseError, "unknown key '" + Key + "'");
    long long Index;
    if (!parseInt64(Key.substr(6), Index) || Index < 0 ||
        Index >= static_cast<long long>(WorkloadClass::NumClasses))
      return Fail(ErrCode::OutOfRange,
                  "unknown workload-class tag '" + Key.substr(6) + "'");
    std::vector<std::string> Tokens;
    for (const std::string &Tok : splitString(Value, ' '))
      if (!Tok.empty())
        Tokens.push_back(Tok);
    // Expect coefficients followed by "r2 <value>".
    if (Tokens.size() < 3 || Tokens[Tokens.size() - 2] != "r2")
      return Fail(ErrCode::Truncated,
                  "curve line is truncated (need coefficients and an r2 "
                  "tail)");
    PowerCurve Curve;
    Curve.Class = WorkloadClass::fromIndex(static_cast<unsigned>(Index));
    std::vector<double> Coeffs;
    for (size_t I = 0; I + 2 < Tokens.size(); ++I) {
      double C;
      if (!parseDouble(Tokens[I], C))
        return Fail(ErrCode::ParseError,
                    "unparsable coefficient '" + Tokens[I] + "'");
      if (!std::isfinite(C))
        return Fail(ErrCode::OutOfRange,
                    formatString("coefficient %zu is not finite", I));
      Coeffs.push_back(C);
    }
    // A characterization polynomial is degree 6 (7 coefficients); leave
    // headroom but reject counts no fit could have produced.
    if (Coeffs.empty() || Coeffs.size() > 16)
      return Fail(ErrCode::OutOfRange,
                  formatString("implausible coefficient count %zu",
                               Coeffs.size()));
    if (!parseDouble(Tokens.back(), Curve.RSquared) ||
        !std::isfinite(Curve.RSquared))
      return Fail(ErrCode::ParseError,
                  "unparsable or non-finite r2 value '" + Tokens.back() +
                      "'");
    Curve.Poly = Polynomial(std::move(Coeffs));
    Set.setCurve(std::move(Curve));
  }
  if (RequireComplete && !Set.complete()) {
    unsigned Have = 0;
    for (unsigned Index = 0; Index != WorkloadClass::NumClasses; ++Index)
      Have += Set.Present[Index] ? 1 : 0;
    return Status::error(
        ErrCode::Incomplete,
        formatString("characterization has %u of %u categories", Have,
                     static_cast<unsigned>(WorkloadClass::NumClasses)));
  }
  return Set;
}

PowerCurveFamily PowerCurveFamily::fromSingle(PowerCurveSet Set) {
  PowerCurveFamily Family;
  Family.States[0] = std::move(Set);
  Family.Count = 1;
  return Family;
}

const std::string &PowerCurveFamily::platformName() const {
  static const std::string Empty;
  return Count == 0 ? Empty : States[0].platformName();
}

void PowerCurveFamily::setStateCurves(unsigned State, PowerCurveSet Set) {
  ECAS_CHECK(State < MaxPStates, "P-state index out of range");
  ECAS_CHECK(State <= Count, "P-states must be installed densely");
  States[State] = std::move(Set);
  if (State == Count)
    ++Count;
}

const PowerCurveSet &PowerCurveFamily::stateCurves(unsigned State) const {
  ECAS_CHECK(State < Count, "no characterization for requested P-state");
  return States[State];
}

bool PowerCurveFamily::complete() const {
  if (Count == 0)
    return false;
  for (unsigned I = 0; I != Count; ++I)
    if (!States[I].complete())
      return false;
  return true;
}

std::string PowerCurveFamily::serialize() const {
  std::string Out;
  for (unsigned I = 0; I != Count; ++I) {
    Out += formatString("pstate = %u\n", I);
    Out += States[I].serialize();
  }
  return Out;
}

ErrorOr<PowerCurveFamily> PowerCurveFamily::load(const std::string &Text,
                                                 bool RequireComplete) {
  // Split on "pstate = <idx>" delimiters and delegate each chunk to the
  // per-set parser so every existing diagnostic (truncated curve lines,
  // bad class tags) keeps working for family files.
  PowerCurveFamily Family;
  std::string Chunk;
  long long PendingState = -1;
  bool SawDelimiter = false;
  unsigned LineNo = 0, ChunkStartLine = 1;

  auto FlushChunk = [&]() -> Status {
    if (!SawDelimiter && trimString(Chunk).empty())
      return Status::success();
    ErrorOr<PowerCurveSet> Set = PowerCurveSet::load(Chunk, RequireComplete);
    if (!Set.ok())
      return Status::error(Set.status().code(),
                           formatString("pstate %lld (chunk at line %u): %s",
                                        PendingState < 0 ? 0 : PendingState,
                                        ChunkStartLine,
                                        Set.status().message().c_str()));
    unsigned State = PendingState < 0 ? 0 : static_cast<unsigned>(PendingState);
    if (State != Family.Count)
      return Status::error(ErrCode::ParseError,
                           formatString("pstate %u out of order (expected %u)",
                                        State, Family.Count));
    Family.setStateCurves(State, std::move(*Set));
    return Status::success();
  };

  for (const std::string &Line : splitString(Text, '\n')) {
    ++LineNo;
    std::string Trimmed = trimString(Line);
    if (Trimmed.rfind("pstate", 0) == 0) {
      size_t Eq = Trimmed.find('=');
      std::string Tag = Eq == std::string::npos
                            ? std::string()
                            : trimString(Trimmed.substr(0, Eq));
      if (Tag == "pstate") {
        long long Index;
        if (!parseInt64(trimString(Trimmed.substr(Eq + 1)), Index) ||
            Index < 0 || Index >= static_cast<long long>(MaxPStates))
          return Status::error(
              ErrCode::OutOfRange,
              formatString("line %u: bad pstate index", LineNo));
        if (SawDelimiter || !trimString(Chunk).empty()) {
          Status Flushed = FlushChunk();
          if (!Flushed.ok())
            return Flushed;
        }
        Chunk.clear();
        PendingState = Index;
        SawDelimiter = true;
        ChunkStartLine = LineNo + 1;
        continue;
      }
    }
    Chunk += Line;
    Chunk += '\n';
  }
  Status Flushed = FlushChunk();
  if (!Flushed.ok())
    return Flushed;
  if (Family.Count == 0)
    return Status::error(ErrCode::Incomplete,
                         "characterization has no P-states");
  return Family;
}
