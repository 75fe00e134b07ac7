//===-- ecas/math/Polynomial.cpp - Dense univariate polynomials -----------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/math/Polynomial.h"

#include "ecas/support/Format.h"

#include <cmath>

using namespace ecas;

Polynomial::Polynomial(std::vector<double> Coefficients)
    : Coeffs(std::move(Coefficients)) {}

double Polynomial::evaluate(double X) const {
  double Acc = 0.0;
  for (size_t IdxPlus1 = Coeffs.size(); IdxPlus1 != 0; --IdxPlus1)
    Acc = Acc * X + Coeffs[IdxPlus1 - 1];
  return Acc;
}

std::vector<double>
Polynomial::evaluateMany(const std::vector<double> &Xs) const {
  std::vector<double> Ys;
  Ys.reserve(Xs.size());
  for (double X : Xs)
    Ys.push_back(evaluate(X));
  return Ys;
}

std::string Polynomial::toEquationString() const {
  if (Coeffs.empty())
    return "y = 0";
  std::string Out = "y = ";
  bool First = true;
  for (size_t IdxPlus1 = Coeffs.size(); IdxPlus1 != 0; --IdxPlus1) {
    size_t K = IdxPlus1 - 1;
    double C = Coeffs[K];
    if (C == 0.0 && Coeffs.size() > 1)
      continue;
    if (First) {
      Out += formatString("%.4g", C);
      First = false;
    } else {
      Out += C < 0.0 ? " - " : " + ";
      Out += formatString("%.4g", std::fabs(C));
    }
    if (K == 1)
      Out += "*x";
    else if (K > 1)
      Out += formatString("*x^%zu", K);
  }
  if (First)
    Out += "0";
  return Out;
}
