//===-- tests/MathTest.cpp - math/ unit tests ------------------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/math/Matrix.h"
#include "ecas/math/Minimize.h"
#include "ecas/math/PolyFit.h"
#include "ecas/math/Polynomial.h"
#include "ecas/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ecas;

TEST(Matrix, LeastSquaresExactSystem) {
  // Overdetermined but consistent: y = 3x + 1 sampled at 5 points.
  Matrix A(5, 2);
  std::vector<double> B(5);
  for (size_t I = 0; I != 5; ++I) {
    double X = static_cast<double>(I);
    A.at(I, 0) = 1.0;
    A.at(I, 1) = X;
    B[I] = 3.0 * X + 1.0;
  }
  std::vector<double> Coef;
  ASSERT_TRUE(A.solveLeastSquares(B, Coef));
  EXPECT_NEAR(Coef[0], 1.0, 1e-10);
  EXPECT_NEAR(Coef[1], 3.0, 1e-10);
}

TEST(Matrix, LeastSquaresMinimizesResidual) {
  // Inconsistent system: the LS answer must beat nearby perturbations.
  Matrix A(4, 2);
  std::vector<double> B{1.0, 2.0, 1.5, 3.5};
  for (size_t I = 0; I != 4; ++I) {
    A.at(I, 0) = 1.0;
    A.at(I, 1) = static_cast<double>(I);
  }
  std::vector<double> Coef;
  ASSERT_TRUE(A.solveLeastSquares(B, Coef));
  auto Residual = [&](const std::vector<double> &C) {
    double Sum = 0.0;
    for (size_t I = 0; I != 4; ++I) {
      double Fit = A.at(I, 0) * C[0] + A.at(I, 1) * C[1];
      Sum += (Fit - B[I]) * (Fit - B[I]);
    }
    return Sum;
  };
  double Best = Residual(Coef);
  for (double D0 : {-0.01, 0.01})
    for (double D1 : {-0.01, 0.01}) {
      std::vector<double> Perturbed{Coef[0] + D0, Coef[1] + D1};
      EXPECT_GE(Residual(Perturbed), Best);
    }
}

TEST(Polynomial, HornerEvaluation) {
  Polynomial P({1.0, -2.0, 3.0}); // 1 - 2x + 3x^2
  EXPECT_DOUBLE_EQ(P.evaluate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(P.evaluate(1.0), 2.0);
  EXPECT_DOUBLE_EQ(P.evaluate(2.0), 9.0);
  EXPECT_EQ(P.coefficients().size() - 1, 2u); // degree
}

TEST(Polynomial, EmptyEvaluatesToZero) {
  Polynomial P;
  EXPECT_DOUBLE_EQ(P.evaluate(3.0), 0.0);
  EXPECT_TRUE(P.empty());
}

TEST(Polynomial, EquationString) {
  Polynomial P({1.5, 0.0, -2.0});
  EXPECT_EQ(P.toEquationString(), "y = -2*x^2 + 1.5");
  EXPECT_EQ(Polynomial({0.0}).toEquationString(), "y = 0");
}

/// The fitter's one solver. It stays a parameter axis so each degree's
/// case keeps its name.
enum class Solver { HouseholderQr };

/// Property sweep: fitting recovers exact polynomials of every degree.
class PolyFitRecovery
    : public ::testing::TestWithParam<std::tuple<unsigned, Solver>> {};

TEST_P(PolyFitRecovery, RecoversExactCoefficients) {
  unsigned Degree = std::get<0>(GetParam());
  Xoshiro256 Rng(1000 + Degree);
  std::vector<double> Coeffs(Degree + 1);
  for (double &C : Coeffs)
    C = Rng.nextDouble(-3.0, 3.0);
  Polynomial Truth(Coeffs);

  std::vector<double> Xs, Ys;
  for (double X = 0.0; X <= 1.0 + 1e-9; X += 0.05) {
    Xs.push_back(X);
    Ys.push_back(Truth.evaluate(X));
  }
  auto Fit = fitPolynomial(Xs, Ys, Degree);
  ASSERT_TRUE(Fit.has_value());
  EXPECT_GT(Fit->RSquared, 1.0 - 1e-9);
  for (double X = 0.0; X <= 1.0; X += 0.013)
    EXPECT_NEAR(Fit->Poly.evaluate(X), Truth.evaluate(X), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndMethods, PolyFitRecovery,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u, 8u),
                       ::testing::Values(Solver::HouseholderQr)));

TEST(PolyFit, UnderdeterminedReturnsNullopt) {
  EXPECT_FALSE(fitPolynomial({0.0, 1.0}, {1.0, 2.0}, 6).has_value());
}

TEST(PolyFit, DuplicateAbscissaeFail) {
  std::vector<double> Xs(10, 0.5), Ys(10, 1.0);
  EXPECT_FALSE(fitPolynomial(Xs, Ys, 3).has_value());
}

TEST(PolyFit, NoisyFitHasReasonableQuality) {
  Xoshiro256 Rng(77);
  Polynomial Truth({40.0, 10.0, -25.0, 12.0});
  std::vector<double> Xs, Ys;
  for (double X = 0.0; X <= 1.0 + 1e-9; X += 0.1) {
    Xs.push_back(X);
    Ys.push_back(Truth.evaluate(X) + Rng.nextDouble(-0.5, 0.5));
  }
  auto Fit = fitPolynomial(Xs, Ys, 6);
  ASSERT_TRUE(Fit.has_value());
  EXPECT_GT(Fit->RSquared, 0.99);
  EXPECT_LT(Fit->RmsError, 0.5);
}

TEST(Minimize, GridFindsSampledMinimum) {
  auto Fn = [](double X) { return (X - 0.42) * (X - 0.42); };
  MinResult R = minimizeOnGrid(Fn, 0.0, 1.0, 0.1);
  EXPECT_NEAR(R.ArgMin, 0.4, 1e-12);
  EXPECT_EQ(R.Evaluations, 11u);
}

TEST(Minimize, GridIncludesEndpoints) {
  auto Fn = [](double X) { return -X; }; // Minimum at the right end.
  MinResult R = minimizeOnGrid(Fn, 0.0, 1.0, 0.3);
  EXPECT_DOUBLE_EQ(R.ArgMin, 1.0);
}

TEST(Minimize, GoldenSectionConverges) {
  auto Fn = [](double X) { return std::cosh(X - 0.37); };
  MinResult R = minimizeGoldenSection(Fn, 0.0, 1.0, 1e-7);
  EXPECT_NEAR(R.ArgMin, 0.37, 1e-5);
}

TEST(Minimize, GridThenRefineBeatsPlainGrid) {
  auto Fn = [](double X) { return (X - 0.42) * (X - 0.42); };
  MinResult Grid = minimizeOnGrid(Fn, 0.0, 1.0, 0.1);
  MinResult Refined = minimizeGridThenRefine(Fn, 0.0, 1.0, 0.1, 1e-7);
  EXPECT_LE(Refined.Value, Grid.Value);
  EXPECT_NEAR(Refined.ArgMin, 0.42, 1e-4);
}

TEST(Minimize, RefineNeverWorseOnMultimodal) {
  // Two wells; grid finds the deeper one, refinement must not lose it.
  auto Fn = [](double X) {
    return std::min((X - 0.1) * (X - 0.1),
                    0.002 + (X - 0.9) * (X - 0.9));
  };
  MinResult Grid = minimizeOnGrid(Fn, 0.0, 1.0, 0.1);
  MinResult Refined = minimizeGridThenRefine(Fn, 0.0, 1.0, 0.1, 1e-7);
  EXPECT_LE(Refined.Value, Grid.Value + 1e-12);
}
