//===-- ecas/math/Polynomial.h - Dense univariate polynomials --*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The power-characterization functions of Section 2 are sixth-order
/// polynomials P(alpha); this class stores arbitrary-degree coefficient
/// vectors, evaluates them with Horner's rule, and prints them in the
/// "y = a6*x^6 + ... + a0" style of Figs. 5 and 6.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_MATH_POLYNOMIAL_H
#define ECAS_MATH_POLYNOMIAL_H

#include <string>
#include <vector>

namespace ecas {

/// Univariate polynomial with coefficients stored lowest-degree first
/// (Coeffs[k] multiplies x^k).
class Polynomial {
public:
  Polynomial() = default;
  explicit Polynomial(std::vector<double> Coefficients);

  /// An empty polynomial evaluates to 0.
  bool empty() const { return Coeffs.empty(); }
  const std::vector<double> &coefficients() const { return Coeffs; }

  /// Evaluates at \p X with Horner's rule.
  double evaluate(double X) const;

  /// Evaluates at each element of \p Xs.
  std::vector<double> evaluateMany(const std::vector<double> &Xs) const;

  /// Renders "y = a6*x^6 + a5*x^5 + ... + a0" with %.4g coefficients,
  /// matching the equation labels in the paper's Figs. 5-6.
  std::string toEquationString() const;

private:
  std::vector<double> Coeffs;
};

} // namespace ecas

#endif // ECAS_MATH_POLYNOMIAL_H
