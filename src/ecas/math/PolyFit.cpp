//===-- ecas/math/PolyFit.cpp - Least-squares polynomial fitting ----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/math/PolyFit.h"

#include "ecas/math/Matrix.h"
#include "ecas/support/Assert.h"
#include "ecas/support/Stats.h"

using namespace ecas;

std::optional<FitResult> ecas::fitPolynomial(const std::vector<double> &Xs,
                                             const std::vector<double> &Ys,
                                             unsigned Degree) {
  ECAS_CHECK(Xs.size() == Ys.size(), "polyfit sample size mismatch");
  const size_t NumSamples = Xs.size();
  const size_t NumCoeffs = static_cast<size_t>(Degree) + 1;
  if (NumSamples < NumCoeffs)
    return std::nullopt;

  Matrix Vandermonde(NumSamples, NumCoeffs);
  for (size_t Row = 0; Row != NumSamples; ++Row) {
    double Power = 1.0;
    for (size_t Col = 0; Col != NumCoeffs; ++Col) {
      Vandermonde.at(Row, Col) = Power;
      Power *= Xs[Row];
    }
  }

  std::vector<double> Coeffs;
  if (!Vandermonde.solveLeastSquares(Ys, Coeffs))
    return std::nullopt;

  FitResult Result;
  Result.Poly = Polynomial(std::move(Coeffs));
  std::vector<double> Fit = Result.Poly.evaluateMany(Xs);
  Result.RSquared = rSquared(Ys, Fit);
  Result.RmsError = rmsError(Ys, Fit);
  return Result;
}
