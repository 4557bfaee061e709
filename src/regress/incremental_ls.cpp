#include "regress/incremental_ls.hpp"

#include <cmath>

#include "common/error.hpp"

namespace convmeter {

// ---- ExactSum -------------------------------------------------------------

void ExactSum::add(double v) {
  if (v == 0.0) return;
  CM_CHECK(std::isfinite(v), "ExactSum cannot accumulate a non-finite value");
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, |mant| in [0.5, 1)
  // 53-bit signed integer mantissa: v = m * 2^(exp - 53). Exact for every
  // finite double, including subnormals (frexp renormalizes them).
  const auto m = static_cast<std::int64_t>(std::ldexp(mant, 53));
  const int e = exp - 53 + kBias;  // >= 0 for every double, <= 32 * kBins - 1
  const int bin = e >> 5;
  const int shift = e & 31;
  // Spread m << shift over three consecutive base-2^32 digits.
  const auto wide = static_cast<__int128>(m) << shift;
  bins_[bin] += static_cast<std::int64_t>(wide & 0xffffffff);
  bins_[bin + 1] += static_cast<std::int64_t>((wide >> 32) & 0xffffffff);
  bins_[bin + 2] += static_cast<std::int64_t>(wide >> 64);
  if (++dirty_adds_ >= kNormalizeEvery) normalize();
}

void ExactSum::add(const ExactSum& other) {
  for (int i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
  normalize();
}

void ExactSum::subtract(const ExactSum& other) {
  for (int i = 0; i < kBins; ++i) bins_[i] -= other.bins_[i];
  normalize();
}

void ExactSum::normalize() {
  std::int64_t carry = 0;
  for (int i = 0; i < kBins - 1; ++i) {
    const std::int64_t t = bins_[i] + carry;
    carry = t >> 32;  // floor division by 2^32
    bins_[i] = t - (carry << 32);
  }
  bins_[kBins - 1] += carry;
  dirty_adds_ = 0;
}

double ExactSum::value() const {
  ExactSum canon = *this;
  canon.normalize();
  // Horner evaluation from the top digit down in long double. Once the
  // leading digits dominate, lower digits only steer rounding; the result
  // is a deterministic function of the canonical digits.
  long double acc = 0.0L;
  for (int i = kBins - 1; i >= 0; --i) {
    acc = acc * 4294967296.0L + static_cast<long double>(canon.bins_[i]);
  }
  return static_cast<double>(std::ldexp(acc, -kBias));
}

bool ExactSum::operator==(const ExactSum& other) const {
  ExactSum a = *this;
  ExactSum b = other;
  a.normalize();
  b.normalize();
  return a.bins_ == b.bins_;
}

// ---- IncrementalLS --------------------------------------------------------

namespace {

/// err + the rounding error of (a + b) given sum = a + b (Knuth two-sum).
double two_sum_error(double a, double b, double sum) {
  const double bv = sum - a;
  return (a - (sum - bv)) + (b - bv);
}

}  // namespace

IncrementalLS::IncrementalLS(std::size_t cols) : cols_(cols) {
  CM_CHECK(cols > 0, "IncrementalLS needs at least one column");
  xtx_.resize(cols * (cols + 1) / 2);
  xty_.resize(cols);
  max_abs_.assign(cols, 0.0);
}

std::size_t IncrementalLS::tri_index(std::size_t i, std::size_t j) const {
  // Upper triangle (i <= j), row major: row i starts after i full rows.
  return i * cols_ - i * (i + 1) / 2 + j;
}

void IncrementalLS::observe(const Vector& x, double y) {
  if (cols_ == 0) *this = IncrementalLS(x.size());
  CM_CHECK(x.size() == cols_, "observe: feature width mismatch");
  for (std::size_t i = 0; i < cols_; ++i) {
    const double xi = x[i];
    const double a = std::fabs(xi);
    if (a > max_abs_[i]) max_abs_[i] = a;
    for (std::size_t j = i; j < cols_; ++j) {
      xtx_[tri_index(i, j)].add(xi * x[j]);
    }
    xty_[i].add(xi * y);
  }
  ++count_;
}

void IncrementalLS::merge(const IncrementalLS& other) {
  if (other.cols_ == 0) return;
  if (cols_ == 0) *this = IncrementalLS(other.cols_);
  CM_CHECK(cols_ == other.cols_, "merge: column count mismatch");
  for (std::size_t i = 0; i < xtx_.size(); ++i) xtx_[i].add(other.xtx_[i]);
  for (std::size_t i = 0; i < cols_; ++i) {
    xty_[i].add(other.xty_[i]);
    if (other.max_abs_[i] > max_abs_[i]) max_abs_[i] = other.max_abs_[i];
  }
  count_ += other.count_;
}

void IncrementalLS::subtract(const IncrementalLS& other) {
  if (other.cols_ == 0) return;
  CM_CHECK(cols_ == other.cols_, "subtract: column count mismatch");
  CM_CHECK(count_ >= other.count_,
           "subtract: removing more observations than accumulated");
  for (std::size_t i = 0; i < xtx_.size(); ++i) xtx_[i].subtract(other.xtx_[i]);
  for (std::size_t i = 0; i < cols_; ++i) xty_[i].subtract(other.xty_[i]);
  // max_abs_ keeps the union's scales: a max cannot be un-taken, and the
  // scale only affects conditioning of the solve, not its solution.
  count_ -= other.count_;
}

Vector IncrementalLS::solve_scaled(double lambda) const {
  CM_CHECK(cols_ > 0 && count_ > 0, "solve: no observations accumulated");
  Vector scales(cols_, 1.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    if (max_abs_[c] > 0.0) scales[c] = max_abs_[c];
  }

  // Assemble the scaled normal equations S β = b from the exact sums.
  Matrix s(cols_, cols_);
  Vector b(cols_);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      const double v = xtx_[tri_index(i, j)].value() / (scales[i] * scales[j]);
      s(i, j) = v;
      s(j, i) = v;
    }
    b[i] = xty_[i].value() / scales[i];
  }
  Matrix sys = s;
  if (lambda > 0.0) {
    for (std::size_t i = 0; i < cols_; ++i) sys(i, i) += lambda;
  }

  Vector beta = solve_spd(sys, b);

  // Two rounds of iterative refinement with a compensated residual: the
  // residual r = b - S β is computed in roughly doubled precision (fma
  // product errors + two-sum carry), which recovers the accuracy the old QR
  // solve had despite squaring the condition number in XᵀX.
  for (int round = 0; round < 2; ++round) {
    Vector r(cols_);
    for (std::size_t i = 0; i < cols_; ++i) {
      double sum = -b[i];
      double comp = 0.0;
      for (std::size_t j = 0; j < cols_; ++j) {
        const double prod = sys(i, j) * beta[j];
        comp += std::fma(sys(i, j), beta[j], -prod);
        const double next = sum + prod;
        comp += two_sum_error(sum, prod, next);
        sum = next;
      }
      r[i] = -(sum + comp);
    }
    const Vector delta = solve_spd(sys, r);
    for (std::size_t i = 0; i < cols_; ++i) beta[i] += delta[i];
  }

  for (std::size_t i = 0; i < cols_; ++i) beta[i] /= scales[i];
  return beta;
}

Vector IncrementalLS::solve() const {
  CM_CHECK(count_ >= cols_, "solve: need at least as many samples as features");
  try {
    return solve_scaled(0.0);
  } catch (const NumericalError&) {
    // Rank-deficient design (e.g. a constant feature column): a light
    // ridge in scaled feature space.
    return solve_scaled(1e-8);
  }
}

bool IncrementalLS::operator==(const IncrementalLS& other) const {
  return cols_ == other.cols_ && count_ == other.count_ &&
         max_abs_ == other.max_abs_ && xtx_ == other.xtx_ &&
         xty_ == other.xty_;
}

}  // namespace convmeter
