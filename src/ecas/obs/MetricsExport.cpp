//===-- ecas/obs/MetricsExport.cpp - Snapshot exposition -----------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/MetricsExport.h"

#include "ecas/support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

using namespace ecas;
using namespace ecas::obs;

namespace {

/// Shortest decimal that parses back to exactly \p V — keeps golden
/// outputs readable ("0.25", not "0.25000000000000000").
std::string formatDouble(double V) {
  if (std::isnan(V))
    return "NaN";
  if (std::isinf(V))
    return V > 0 ? "+Inf" : "-Inf";
  for (int Prec = 1; Prec <= 17; ++Prec) {
    std::string S = formatString("%.*g", Prec, V);
    double Back;
    if (parseDouble(S, Back) && Back == V)
      return S;
  }
  return formatString("%.17g", V);
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escapeLabelValue(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  for (char C : V) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

/// HELP text escaping (no quotes involved): backslash and newline only.
std::string escapeHelp(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

/// Renders `{k1="v1",k2="v2"}`; \p Extra appends one more pair (the
/// histogram `le` label). Empty label sets with no extra render as "".
std::string renderLabels(const MetricLabels &Labels,
                         const std::pair<std::string, std::string> *Extra) {
  if (Labels.empty() && !Extra)
    return "";
  std::string Out = "{";
  bool First = true;
  for (const auto &[K, V] : Labels) {
    if (!First)
      Out += ",";
    First = false;
    Out += K + "=\"" + escapeLabelValue(V) + "\"";
  }
  if (Extra) {
    if (!First)
      Out += ",";
    Out += Extra->first + "=\"" + escapeLabelValue(Extra->second) + "\"";
  }
  return Out + "}";
}

/// NaN/Inf have no JSON literal; snapshots encode them as null.
std::string jsonNumber(double V) {
  if (std::isnan(V) || std::isinf(V))
    return "null";
  return formatDouble(V);
}

} // namespace

std::string ecas::obs::renderPrometheus(const MetricsSnapshot &Snap) {
  std::string Out;
  std::string LastFamily;
  for (const MetricSample &S : Snap.Samples) {
    if (S.Name != LastFamily) {
      LastFamily = S.Name;
      if (!S.Help.empty())
        Out += "# HELP " + S.Name + " " + escapeHelp(S.Help) + "\n";
      Out += "# TYPE " + S.Name + " ";
      Out += metricKindName(S.Kind);
      Out += "\n";
    }
    if (S.Kind != MetricKind::Histogram) {
      Out += S.Name + renderLabels(S.Labels, nullptr) + " " +
             formatDouble(S.Value) + "\n";
      continue;
    }
    uint64_t Cumulative = 0;
    for (size_t I = 0; I != S.Hist.Counts.size(); ++I) {
      Cumulative += S.Hist.Counts[I];
      std::pair<std::string, std::string> Le{
          "le", I < S.Hist.UpperBounds.size()
                    ? formatDouble(S.Hist.UpperBounds[I])
                    : std::string("+Inf")};
      Out += S.Name + "_bucket" + renderLabels(S.Labels, &Le) + " " +
             std::to_string(Cumulative) + "\n";
    }
    Out += S.Name + "_sum" + renderLabels(S.Labels, nullptr) + " " +
           formatDouble(S.Hist.Sum) + "\n";
    Out += S.Name + "_count" + renderLabels(S.Labels, nullptr) + " " +
           std::to_string(S.Hist.Count) + "\n";
  }
  return Out;
}

std::string ecas::obs::renderMetricsJson(const MetricsSnapshot &Snap) {
  std::string Out = "{\n  \"metrics\": [";
  bool FirstSample = true;
  for (const MetricSample &S : Snap.Samples) {
    Out += FirstSample ? "\n" : ",\n";
    FirstSample = false;
    Out += "    {\"name\": \"" + escapeJson(S.Name) + "\", \"kind\": \"";
    Out += metricKindName(S.Kind);
    Out += "\", \"labels\": {";
    bool FirstLabel = true;
    for (const auto &[K, V] : S.Labels) {
      if (!FirstLabel)
        Out += ", ";
      FirstLabel = false;
      Out += "\"";
      Out += escapeJson(K);
      Out += "\": \"";
      Out += escapeJson(V);
      Out += "\"";
    }
    Out += "}";
    if (S.Kind != MetricKind::Histogram) {
      Out += ", \"value\": " + jsonNumber(S.Value) + "}";
      continue;
    }
    Out += ", \"bounds\": [";
    for (size_t I = 0; I != S.Hist.UpperBounds.size(); ++I) {
      if (I)
        Out += ", ";
      Out += jsonNumber(S.Hist.UpperBounds[I]);
    }
    Out += "], \"counts\": [";
    for (size_t I = 0; I != S.Hist.Counts.size(); ++I) {
      if (I)
        Out += ", ";
      Out += std::to_string(S.Hist.Counts[I]);
    }
    Out += "], \"count\": " + std::to_string(S.Hist.Count);
    Out += ", \"sum\": " + jsonNumber(S.Hist.Sum);
    Out += ", \"min\": " + jsonNumber(S.Hist.Min);
    Out += ", \"max\": " + jsonNumber(S.Hist.Max) + "}";
  }
  Out += "\n  ]\n}\n";
  return Out;
}

std::string ecas::obs::renderMetricsReport(const MetricsSnapshot &Snap) {
  std::string Out;
  size_t Width = 0;
  for (const MetricSample &S : Snap.Samples)
    Width = std::max(Width,
                     S.Name.size() + renderLabels(S.Labels, nullptr).size());
  for (const MetricSample &S : Snap.Samples) {
    std::string Key = S.Name + renderLabels(S.Labels, nullptr);
    Out += padRight(Key, Width + 2);
    if (S.Kind != MetricKind::Histogram) {
      Out += formatDouble(S.Value) + "\n";
      continue;
    }
    if (S.Hist.Count == 0) {
      Out += "count=0\n";
      continue;
    }
    Out += formatString(
        "count=%llu mean=%s p50=%s p90=%s p99=%s max=%s\n",
        static_cast<unsigned long long>(S.Hist.Count),
        formatDouble(S.Hist.mean()).c_str(),
        formatDouble(S.Hist.quantile(0.5)).c_str(),
        formatDouble(S.Hist.quantile(0.9)).c_str(),
        formatDouble(S.Hist.quantile(0.99)).c_str(),
        formatDouble(S.Hist.Max).c_str());
  }
  return Out;
}

namespace {

/// One parsed exposition sample line before histogram reassembly.
struct RawSample {
  std::string Name;
  MetricLabels Labels;
  double Value = 0.0;
};

/// Parses `{k="v",...}` starting at \p Pos (which must point at '{').
/// Advances \p Pos past the closing brace.
Status parseLabelBlock(const std::string &Line, size_t &Pos,
                       MetricLabels &Labels) {
  ++Pos; // past '{'
  while (Pos < Line.size() && Line[Pos] != '}') {
    size_t Eq = Line.find('=', Pos);
    if (Eq == std::string::npos || Eq + 1 >= Line.size() ||
        Line[Eq + 1] != '"')
      return Status::error(ErrCode::ParseError,
                           "malformed label in: " + Line);
    std::string Key = trimString(Line.substr(Pos, Eq - Pos));
    std::string Value;
    size_t P = Eq + 2;
    bool Closed = false;
    for (; P < Line.size(); ++P) {
      char C = Line[P];
      if (C == '\\' && P + 1 < Line.size()) {
        char N = Line[++P];
        if (N == 'n')
          Value += '\n';
        else
          Value += N; // \" and \\ (and anything else, verbatim)
      } else if (C == '"') {
        Closed = true;
        break;
      } else {
        Value += C;
      }
    }
    if (!Closed)
      return Status::error(ErrCode::ParseError,
                           "unterminated label value in: " + Line);
    Labels.emplace_back(std::move(Key), std::move(Value));
    Pos = P + 1;
    if (Pos < Line.size() && Line[Pos] == ',')
      ++Pos;
  }
  if (Pos >= Line.size() || Line[Pos] != '}')
    return Status::error(ErrCode::ParseError,
                         "unterminated label block in: " + Line);
  ++Pos;
  return Status::success();
}

ErrorOr<RawSample> parseSampleLine(const std::string &Line) {
  RawSample S;
  size_t Pos = Line.find_first_of("{ \t");
  if (Pos == std::string::npos)
    return Status::error(ErrCode::ParseError, "sample missing value: " + Line);
  S.Name = Line.substr(0, Pos);
  if (Line[Pos] == '{')
    if (Status St = parseLabelBlock(Line, Pos, S.Labels); !St)
      return St;
  std::string ValueText = trimString(Line.substr(Pos));
  if (ValueText == "+Inf")
    S.Value = std::numeric_limits<double>::infinity();
  else if (ValueText == "-Inf")
    S.Value = -std::numeric_limits<double>::infinity();
  else if (ValueText == "NaN")
    S.Value = std::numeric_limits<double>::quiet_NaN();
  else if (!parseDouble(ValueText, S.Value))
    return Status::error(ErrCode::ParseError,
                         "unparsable sample value '" + ValueText +
                             "' in: " + Line);
  return S;
}

/// Strips a known suffix; returns true when \p Name ended with it.
bool stripSuffix(std::string &Name, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  if (Name.size() <= N || Name.compare(Name.size() - N, N, Suffix) != 0)
    return false;
  Name.resize(Name.size() - N);
  return true;
}

/// Histogram family being reassembled from _bucket/_sum/_count rows.
struct HistogramAccum {
  MetricLabels Labels;
  std::vector<std::pair<double, uint64_t>> CumulativeByEdge; // le -> count
  double Sum = 0.0;
  uint64_t Count = 0;
  bool SawCount = false;
};

} // namespace

ErrorOr<MetricsSnapshot> ecas::obs::parsePrometheusText(
    const std::string &Text) {
  MetricsSnapshot Snap;
  std::map<std::string, std::string> HelpFor;
  std::map<std::string, MetricKind> TypeFor;
  // Keyed by family name + rendered non-le labels so per-class variants
  // stay separate.
  std::map<std::string, HistogramAccum> Hists;

  for (const std::string &RawLine : splitString(Text, '\n')) {
    std::string Line = trimString(RawLine);
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      std::vector<std::string> Parts = splitString(Line, ' ');
      if (Parts.size() >= 3 && Parts[1] == "TYPE") {
        if (Parts.size() < 4)
          return Status::error(ErrCode::ParseError,
                               "malformed TYPE line: " + Line);
        MetricKind Kind;
        if (Parts[3] == "counter")
          Kind = MetricKind::Counter;
        else if (Parts[3] == "gauge")
          Kind = MetricKind::Gauge;
        else if (Parts[3] == "histogram")
          Kind = MetricKind::Histogram;
        else
          return Status::error(ErrCode::ParseError,
                               "unknown metric type '" + Parts[3] +
                                   "' in: " + Line);
        TypeFor[Parts[2]] = Kind;
      } else if (Parts.size() >= 3 && Parts[1] == "HELP") {
        size_t TextPos = Line.find(Parts[2]) + Parts[2].size();
        std::string Help = trimString(Line.substr(TextPos));
        std::string Unescaped;
        for (size_t I = 0; I != Help.size(); ++I) {
          if (Help[I] == '\\' && I + 1 < Help.size()) {
            ++I;
            Unescaped += Help[I] == 'n' ? '\n' : Help[I];
          } else {
            Unescaped += Help[I];
          }
        }
        HelpFor[Parts[2]] = Unescaped;
      }
      continue; // other comments ignored
    }

    ErrorOr<RawSample> Parsed = parseSampleLine(Line);
    if (!Parsed.ok())
      return Parsed.status();
    RawSample S = std::move(Parsed.value());

    // Histogram component rows fold into their family's accumulator.
    std::string Family = S.Name;
    if (stripSuffix(Family, "_bucket") &&
        TypeFor.count(Family) &&
        TypeFor[Family] == MetricKind::Histogram) {
      MetricLabels Others;
      double Edge = 0.0;
      bool SawLe = false;
      for (auto &[K, V] : S.Labels) {
        if (K == "le") {
          SawLe = true;
          if (V == "+Inf")
            Edge = std::numeric_limits<double>::infinity();
          else if (!parseDouble(V, Edge))
            return Status::error(ErrCode::ParseError,
                                 "unparsable le bound in: " + Line);
        } else {
          Others.emplace_back(K, V);
        }
      }
      if (!SawLe)
        return Status::error(ErrCode::ParseError,
                             "histogram bucket without le label: " + Line);
      HistogramAccum &A = Hists[Family + renderLabels(Others, nullptr)];
      A.Labels = Others;
      A.CumulativeByEdge.emplace_back(
          Edge, static_cast<uint64_t>(std::llround(S.Value)));
      continue;
    }
    Family = S.Name;
    if (stripSuffix(Family, "_sum") && TypeFor.count(Family) &&
        TypeFor[Family] == MetricKind::Histogram) {
      HistogramAccum &A = Hists[Family + renderLabels(S.Labels, nullptr)];
      A.Labels = S.Labels;
      A.Sum = S.Value;
      continue;
    }
    Family = S.Name;
    if (stripSuffix(Family, "_count") && TypeFor.count(Family) &&
        TypeFor[Family] == MetricKind::Histogram) {
      HistogramAccum &A = Hists[Family + renderLabels(S.Labels, nullptr)];
      A.Labels = S.Labels;
      A.Count = static_cast<uint64_t>(std::llround(S.Value));
      A.SawCount = true;
      continue;
    }

    MetricSample Sample;
    Sample.Name = S.Name;
    Sample.Labels = std::move(S.Labels);
    Sample.Value = S.Value;
    Sample.Kind =
        TypeFor.count(S.Name) ? TypeFor[S.Name] : MetricKind::Gauge;
    if (HelpFor.count(S.Name))
      Sample.Help = HelpFor[S.Name];
    Snap.Samples.push_back(std::move(Sample));
  }

  for (auto &[Key, A] : Hists) {
    std::sort(A.CumulativeByEdge.begin(), A.CumulativeByEdge.end(),
              [](const auto &L, const auto &R) { return L.first < R.first; });
    if (A.CumulativeByEdge.empty() ||
        !std::isinf(A.CumulativeByEdge.back().first))
      return Status::error(ErrCode::Incomplete,
                           "histogram family " + Key +
                               " lacks a le=\"+Inf\" bucket");
    MetricSample Sample;
    size_t FamilyEnd = Key.find('{');
    Sample.Name = Key.substr(0, FamilyEnd);
    Sample.Labels = A.Labels;
    Sample.Kind = MetricKind::Histogram;
    if (HelpFor.count(Sample.Name))
      Sample.Help = HelpFor[Sample.Name];
    uint64_t Prev = 0;
    for (const auto &[Edge, Cumulative] : A.CumulativeByEdge) {
      if (Cumulative < Prev)
        return Status::error(ErrCode::CorruptData,
                             "non-monotonic cumulative bucket counts in " +
                                 Key);
      if (!std::isinf(Edge))
        Sample.Hist.UpperBounds.push_back(Edge);
      Sample.Hist.Counts.push_back(Cumulative - Prev);
      Prev = Cumulative;
    }
    Sample.Hist.Count = A.SawCount ? A.Count : Prev;
    Sample.Hist.Sum = A.Sum;
    // The text format carries no exact min/max; approximate both from
    // the bucket edges so reports on parsed files stay sensible.
    Sample.Hist.Min = Sample.Hist.Count ? Sample.Hist.quantile(0.0) : 0.0;
    Sample.Hist.Max = Sample.Hist.Count ? Sample.Hist.quantile(1.0) : 0.0;
    Snap.Samples.push_back(std::move(Sample));
  }

  std::sort(Snap.Samples.begin(), Snap.Samples.end(),
            [](const MetricSample &A, const MetricSample &B) {
              if (A.Name != B.Name)
                return A.Name < B.Name;
              return A.Labels < B.Labels;
            });
  return Snap;
}
