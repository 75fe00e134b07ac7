//===-- ecas/math/Matrix.h - Small dense matrices ---------------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Row-major dense matrix with the one linear-algebra kernel the
/// polynomial fitter needs: a Householder QR least-squares solve. Sizes
/// here are tiny (a 6th-order fit is an 11x7 system), so clarity beats
/// blocking.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_MATH_MATRIX_H
#define ECAS_MATH_MATRIX_H

#include <cstddef>
#include <vector>

namespace ecas {

/// Dense row-major matrix of doubles.
class Matrix {
public:
  Matrix() = default;
  Matrix(size_t NumRows, size_t NumCols)
      : RowCount(NumRows), ColCount(NumCols), Data(NumRows * NumCols, 0.0) {}

  size_t rows() const { return RowCount; }
  size_t cols() const { return ColCount; }
  bool empty() const { return Data.empty(); }

  double &at(size_t Row, size_t Col);

  /// Least-squares solve of the (possibly overdetermined) system
  /// A*x ~= B via Householder QR. Requires rows() >= cols().
  /// \returns false if A is rank-deficient to working precision.
  bool solveLeastSquares(const std::vector<double> &B,
                         std::vector<double> &X) const;

private:
  size_t RowCount = 0;
  size_t ColCount = 0;
  std::vector<double> Data;
};

} // namespace ecas

#endif // ECAS_MATH_MATRIX_H
