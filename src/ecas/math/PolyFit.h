//===-- ecas/math/PolyFit.h - Least-squares polynomial fitting -*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fits the sixth-order power characterization polynomials of Section 2
/// ("fit a smooth curve to derive a polynomial approximation") by
/// Householder QR on the Vandermonde system, which stays numerically
/// robust where the normal equations would square its condition number.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_MATH_POLYFIT_H
#define ECAS_MATH_POLYFIT_H

#include "ecas/math/Polynomial.h"

#include <optional>
#include <vector>

namespace ecas {

/// Result of a fit: the polynomial plus goodness-of-fit measures over the
/// input sample.
struct FitResult {
  Polynomial Poly;
  double RSquared = 0.0;
  double RmsError = 0.0;
};

/// Fits a degree-\p Degree polynomial to samples (Xs[i], Ys[i]).
///
/// Requires at least Degree+1 samples. \returns std::nullopt when the
/// Vandermonde system is rank-deficient (e.g. duplicated abscissae leaving
/// fewer than Degree+1 distinct X values).
std::optional<FitResult> fitPolynomial(const std::vector<double> &Xs,
                                       const std::vector<double> &Ys,
                                       unsigned Degree);

} // namespace ecas

#endif // ECAS_MATH_POLYFIT_H
