// Dense row-major matrix and the two dense solvers.
//
// Fitting runs on normal-equation statistics (regress/incremental_ls), so
// the production solver is the Cholesky solve_spd on a < 10-wide system.
// The Householder-QR least-squares solve is the reference the streaming
// fit is tested against. Matrix also backs the MLP baseline's weights.
#pragma once

#include <cstddef>
#include <vector>

namespace convmeter {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles with value semantics.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves min ||A x - b||_2 via Householder QR. Requires rows >= cols and
/// full column rank; throws NumericalError otherwise.
Vector solve_least_squares(const Matrix& a, const Vector& b);

/// Solves the symmetric positive-definite system S x = rhs in place via
/// Cholesky decomposition; throws NumericalError when S is not SPD.
Vector solve_spd(Matrix s, Vector rhs);

}  // namespace convmeter
