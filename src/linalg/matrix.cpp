#include "linalg/matrix.hpp"

#include <cmath>

#include "common/error.hpp"

namespace convmeter {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  CM_CHECK(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  CM_CHECK(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

Vector solve_least_squares(const Matrix& a, const Vector& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  CM_CHECK(b.size() == m, "least squares: rhs size mismatch");
  CM_CHECK(m >= n, "least squares requires rows >= cols");

  // Work on copies: R starts as A, y starts as b.
  Matrix r = a;
  Vector y = b;

  // Householder QR: for each column k build the reflector that zeroes the
  // entries below the diagonal and apply it to R and y.
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      throw NumericalError(
          "least squares design matrix is (numerically) rank deficient");
    }
    const double alpha = r(k, k) >= 0.0 ? -norm : norm;

    Vector v(m - k, 0.0);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vnorm2 = 0.0;
    for (const double x : v) vnorm2 += x * x;
    if (vnorm2 < 1e-300) continue;  // column already reduced

    const auto apply = [&](auto&& get, auto&& set) {
      double dot = 0.0;
      for (std::size_t i = k; i < m; ++i) dot += v[i - k] * get(i);
      const double scale = 2.0 * dot / vnorm2;
      for (std::size_t i = k; i < m; ++i) set(i, get(i) - scale * v[i - k]);
    };
    for (std::size_t j = k; j < n; ++j) {
      apply([&](std::size_t i) { return r(i, j); },
            [&](std::size_t i, double x) { r(i, j) = x; });
    }
    apply([&](std::size_t i) { return y[i]; },
          [&](std::size_t i, double x) { y[i] = x; });
  }

  // Back-substitution on the upper-triangular system R x = y.
  Vector x(n, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    double sum = y[k];
    for (std::size_t j = k + 1; j < n; ++j) sum -= r(k, j) * x[j];
    const double diag = r(k, k);
    if (std::fabs(diag) < 1e-12) {
      throw NumericalError("least squares back-substitution hit a zero pivot");
    }
    x[k] = sum / diag;
  }
  return x;
}

Vector solve_spd(Matrix s, Vector rhs) {
  const std::size_t n = s.rows();
  CM_CHECK(s.cols() == n && rhs.size() == n, "solve_spd: size mismatch");

  // Cholesky: S = L L^T, stored in the lower triangle of s.
  for (std::size_t j = 0; j < n; ++j) {
    double d = s(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= s(j, k) * s(j, k);
    if (d <= 0.0) {
      throw NumericalError("matrix is not positive definite");
    }
    const double ljj = std::sqrt(d);
    s(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = s(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= s(i, k) * s(j, k);
      s(i, j) = v / ljj;
    }
  }
  // Forward solve L z = rhs.
  for (std::size_t i = 0; i < n; ++i) {
    double v = rhs[i];
    for (std::size_t k = 0; k < i; ++k) v -= s(i, k) * rhs[k];
    rhs[i] = v / s(i, i);
  }
  // Backward solve L^T x = z.
  for (std::size_t i = n; i-- > 0;) {
    double v = rhs[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= s(k, i) * rhs[k];
    rhs[i] = v / s(i, i);
  }
  return rhs;
}

}  // namespace convmeter
