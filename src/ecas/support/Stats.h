//===-- ecas/support/Stats.h - Descriptive statistics ----------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Running and batch descriptive statistics. Characterization averages
/// power samples; the evaluation harness aggregates per-benchmark
/// efficiencies with arithmetic means, matching the paper's "on average
/// X% of Oracle" reporting.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_STATS_H
#define ECAS_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecas {

/// Single-pass running mean/min/max accumulator (Welford's mean update).
class RunningStats {
public:
  void add(double Value);

  size_t count() const { return N; }
  double mean() const { return N ? Mean : 0.0; }
  double min() const { return N ? Lo : 0.0; }
  double max() const { return N ? Hi : 0.0; }
  double sum() const { return Mean * static_cast<double>(N); }

private:
  size_t N = 0;
  double Mean = 0.0;
  double Lo = 0.0;
  double Hi = 0.0;
};

/// Arithmetic mean of \p Values; zero for an empty vector.
double arithmeticMean(const std::vector<double> &Values);

/// The \p Q quantile (0..1) of a sample, by linear interpolation between
/// order statistics: the one rule every benchmark percentile uses.
/// \p Sorted must be ascending and NaN-free; returns NaN for an empty
/// vector (not a value pulled from thin air), the sole element for a
/// one-sample vector, and clamps \p Q into [0, 1].
double quantileSorted(const std::vector<double> &Sorted, double Q);

/// Quantile estimated from log- or linear-bucketed counts, the way
/// Prometheus' histogram_quantile does it: \p UpperBounds are the
/// ascending finite bucket upper edges and \p Counts holds one entry
/// per bound plus a trailing overflow bucket (so Counts.size() ==
/// UpperBounds.size() + 1). The result interpolates linearly inside the
/// target bucket (the first bucket's lower edge is 0); a quantile
/// landing in the overflow bucket reports the highest finite bound.
/// Returns NaN when no samples were recorded.
double quantileFromBuckets(const std::vector<double> &UpperBounds,
                           const std::vector<uint64_t> &Counts, double Q);

/// Coefficient of determination of predictions \p Fit against observations
/// \p Ref; 1.0 means a perfect fit. Vectors must be equal-sized and
/// non-empty.
double rSquared(const std::vector<double> &Ref, const std::vector<double> &Fit);

/// Root-mean-square error between two equal-sized vectors.
double rmsError(const std::vector<double> &Ref, const std::vector<double> &Fit);

} // namespace ecas

#endif // ECAS_SUPPORT_STATS_H
