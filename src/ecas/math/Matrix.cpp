//===-- ecas/math/Matrix.cpp - Small dense matrices -----------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/math/Matrix.h"

#include "ecas/support/Assert.h"

#include <algorithm>
#include <cmath>

using namespace ecas;

double &Matrix::at(size_t Row, size_t Col) {
  assert(Row < RowCount && Col < ColCount && "matrix index out of range");
  return Data[Row * ColCount + Col];
}

bool Matrix::solveLeastSquares(const std::vector<double> &B,
                               std::vector<double> &X) const {
  ECAS_CHECK(RowCount >= ColCount,
             "least squares requires at least as many rows as columns");
  ECAS_CHECK(B.size() == RowCount, "least squares rhs size mismatch");
  const size_t M = RowCount, N = ColCount;
  Matrix A = *this;
  std::vector<double> Rhs = B;

  // Householder QR: reduce A to upper-triangular R, applying the same
  // reflections to the right-hand side. The triangular solve on the top
  // N rows then yields the least-squares solution.
  for (size_t Col = 0; Col != N; ++Col) {
    double Norm = 0.0;
    for (size_t Row = Col; Row != M; ++Row)
      Norm += A.at(Row, Col) * A.at(Row, Col);
    Norm = std::sqrt(Norm);
    if (Norm < 1e-300)
      return false;
    if (A.at(Col, Col) > 0.0)
      Norm = -Norm;

    // Householder vector V is stored temporarily in column Col.
    double VHead = A.at(Col, Col) - Norm;
    std::vector<double> V(M - Col);
    V[0] = VHead;
    for (size_t Row = Col + 1; Row != M; ++Row)
      V[Row - Col] = A.at(Row, Col);
    double VNormSq = 0.0;
    for (double Entry : V)
      VNormSq += Entry * Entry;
    if (VNormSq < 1e-300)
      return false;
    double Beta = 2.0 / VNormSq;

    // Apply the reflection to the remaining columns and the RHS.
    for (size_t C = Col; C != N; ++C) {
      double Dot = 0.0;
      for (size_t Row = Col; Row != M; ++Row)
        Dot += V[Row - Col] * A.at(Row, C);
      Dot *= Beta;
      for (size_t Row = Col; Row != M; ++Row)
        A.at(Row, C) -= Dot * V[Row - Col];
    }
    double Dot = 0.0;
    for (size_t Row = Col; Row != M; ++Row)
      Dot += V[Row - Col] * Rhs[Row];
    Dot *= Beta;
    for (size_t Row = Col; Row != M; ++Row)
      Rhs[Row] -= Dot * V[Row - Col];
  }

  // Rank test relative to the largest entry of the input matrix.
  double MaxAbs = 0.0;
  for (double Entry : Data)
    MaxAbs = std::max(MaxAbs, std::fabs(Entry));
  X.assign(N, 0.0);
  for (size_t ColPlus1 = N; ColPlus1 != 0; --ColPlus1) {
    size_t Col = ColPlus1 - 1;
    double Diag = A.at(Col, Col);
    if (std::fabs(Diag) < 1e-12 * (1.0 + MaxAbs))
      return false;
    double Sum = Rhs[Col];
    for (size_t C = Col + 1; C != N; ++C)
      Sum -= A.at(Col, C) * X[C];
    X[Col] = Sum / Diag;
  }
  return true;
}
