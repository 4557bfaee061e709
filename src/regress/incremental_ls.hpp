// Incremental least squares over exact sufficient statistics — the solver
// the streaming fit pipeline is built on (DESIGN §13).
//
// The materialized design matrix is replaced by the normal-equation
// statistics XᵀX and Xᵀy, accumulated one observation at a time. Both are
// held in ExactSum integer superaccumulators, so:
//
//   * merge() of independent shard accumulators equals the single-stream
//     accumulator *bit for bit* (integer addition is associative — the
//     non-associativity of floating-point += never enters), and
//   * subtract() removes a previously merged partial exactly, which is what
//     turns leave-one-group-out from G refits over RAM into
//     "global − group" complements (predict/evaluate).
//
// solve() rescales columns by their max absolute value (ConvMeter's raw
// features span ~12 orders of magnitude, FLOPs next to a constant column),
// solves the scaled normal equations by Cholesky with two rounds of
// compensated iterative refinement (which recovers the accuracy of a
// Householder QR on these small, well-scaled systems), and falls back to a
// λ = 1e-8 ridge in scaled feature space when the system is rank deficient.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace convmeter {

/// Exact sum of doubles via a fixed-point integer superaccumulator.
///
/// Each addend is split (frexp) into a 53-bit integer mantissa times a
/// power of two and spread over 32-bit digits of a base-2³² integer held in
/// int64 bins spanning the full double exponent range. The represented
/// value is exact; add/merge/subtract are integer arithmetic and therefore
/// order-independent. value() rounds the exact total to the nearest double
/// once, at read time.
class ExactSum {
 public:
  /// Adds one double (exactly).
  void add(double v);

  /// Adds / removes another accumulator's exact total.
  void add(const ExactSum& other);
  void subtract(const ExactSum& other);

  /// The exact total rounded to double.
  double value() const;

  /// Canonical-form comparison (used by tests to assert bit-for-bit shard
  /// merges).
  bool operator==(const ExactSum& other) const;
  bool operator!=(const ExactSum& other) const { return !(*this == other); }

 private:
  // 70 bins of 32 value bits cover exponents 2^-1152 .. 2^(32*70-1152);
  // the smallest subnormal lands in bin 0, the largest double in bin 68.
  static constexpr int kBins = 70;
  static constexpr int kBias = 1152;
  static constexpr std::uint32_t kNormalizeEvery = 1u << 30;

  /// Carry-propagates to the canonical form: bins 0..kBins-2 in [0, 2³²),
  /// the top bin signed. Does not change the represented value.
  void normalize();

  std::array<std::int64_t, kBins> bins_{};
  std::uint32_t dirty_adds_ = 0;
};

/// Streaming ordinary least squares with exact, mergeable accumulators.
///
/// observe() is the only per-sample cost; solve() is O(k³) on the k-wide
/// coefficient system and can be called repeatedly (e.g. once per LOO
/// complement). Column scales are tracked as running max-abs values: max is
/// order-independent, so merged shards still solve identically. subtract()
/// keeps the union's scales and count bookkeeping (scales only affect
/// conditioning, not the mathematical solution — DESIGN §13).
class IncrementalLS {
 public:
  IncrementalLS() = default;
  explicit IncrementalLS(std::size_t cols);

  std::size_t cols() const { return cols_; }
  std::uint64_t count() const { return count_; }

  /// Accumulates one observation y ≈ x · β. The first observation fixes
  /// the column count when it was not given at construction.
  void observe(const Vector& x, double y);

  /// Exact union / difference of two accumulators (same column count).
  void merge(const IncrementalLS& other);
  void subtract(const IncrementalLS& other);

  /// OLS solve; falls back to the λ = 1e-8 ridge (in scaled feature space)
  /// when the normal equations are rank deficient (e.g. a constant feature
  /// column). Requires count() >= cols().
  Vector solve() const;

  /// Canonical equality of the accumulated statistics.
  bool operator==(const IncrementalLS& other) const;

 private:
  Vector solve_scaled(double lambda) const;
  std::size_t tri_index(std::size_t i, std::size_t j) const;

  std::size_t cols_ = 0;
  std::uint64_t count_ = 0;
  std::vector<ExactSum> xtx_;  ///< upper triangle of XᵀX, row major
  std::vector<ExactSum> xty_;
  std::vector<double> max_abs_;  ///< per-column running max |x_c|
};

}  // namespace convmeter
