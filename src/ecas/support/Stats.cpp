//===-- ecas/support/Stats.cpp - Descriptive statistics ------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/support/Stats.h"

#include "ecas/support/Assert.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace ecas;

void RunningStats::add(double Value) {
  if (N == 0) {
    Lo = Hi = Value;
  } else {
    Lo = std::min(Lo, Value);
    Hi = std::max(Hi, Value);
  }
  ++N;
  Mean += (Value - Mean) / static_cast<double>(N);
}

double ecas::arithmeticMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double ecas::quantileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return std::numeric_limits<double>::quiet_NaN();
  Q = std::clamp(Q, 0.0, 1.0);
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Below = static_cast<size_t>(Pos);
  if (Below + 1 >= Sorted.size())
    return Sorted.back();
  double Frac = Pos - static_cast<double>(Below);
  return Sorted[Below] * (1.0 - Frac) + Sorted[Below + 1] * Frac;
}

double ecas::quantileFromBuckets(const std::vector<double> &UpperBounds,
                                 const std::vector<uint64_t> &Counts,
                                 double Q) {
  ECAS_CHECK(Counts.size() == UpperBounds.size() + 1,
             "bucket counts must cover every bound plus overflow");
  uint64_t Total = 0;
  for (uint64_t C : Counts)
    Total += C;
  if (Total == 0)
    return std::numeric_limits<double>::quiet_NaN();
  Q = std::clamp(Q, 0.0, 1.0);
  double Rank = Q * static_cast<double>(Total);
  uint64_t Cumulative = 0;
  for (size_t I = 0; I != UpperBounds.size(); ++I) {
    uint64_t Before = Cumulative;
    Cumulative += Counts[I];
    if (static_cast<double>(Cumulative) < Rank)
      continue;
    double Lower = I == 0 ? 0.0 : UpperBounds[I - 1];
    double Upper = UpperBounds[I];
    if (Counts[I] == 0)
      return Upper;
    double Within = (Rank - static_cast<double>(Before)) /
                    static_cast<double>(Counts[I]);
    return Lower + (Upper - Lower) * std::clamp(Within, 0.0, 1.0);
  }
  // The quantile lands in the overflow bucket: the bounds cannot say
  // where, so report the highest finite edge (Prometheus' convention).
  return UpperBounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : UpperBounds.back();
}

double ecas::rSquared(const std::vector<double> &Ref,
                      const std::vector<double> &Fit) {
  ECAS_CHECK(Ref.size() == Fit.size() && !Ref.empty(),
             "rSquared requires equal-sized non-empty vectors");
  double Mean = arithmeticMean(Ref);
  double SsRes = 0.0, SsTot = 0.0;
  for (size_t I = 0; I != Ref.size(); ++I) {
    double Residual = Ref[I] - Fit[I];
    double Centered = Ref[I] - Mean;
    SsRes += Residual * Residual;
    SsTot += Centered * Centered;
  }
  if (SsTot == 0.0)
    return SsRes == 0.0 ? 1.0 : 0.0;
  return 1.0 - SsRes / SsTot;
}

double ecas::rmsError(const std::vector<double> &Ref,
                      const std::vector<double> &Fit) {
  ECAS_CHECK(Ref.size() == Fit.size() && !Ref.empty(),
             "rmsError requires equal-sized non-empty vectors");
  double Sum = 0.0;
  for (size_t I = 0; I != Ref.size(); ++I) {
    double Residual = Ref[I] - Fit[I];
    Sum += Residual * Residual;
  }
  return std::sqrt(Sum / static_cast<double>(Ref.size()));
}
