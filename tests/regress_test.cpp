// Regression-layer tests: LinearModel fits through IncrementalLS, predict
// and serialization, error metrics against hand-computed values, and the
// exactness of the streaming least-squares accumulators.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "regress/error_metrics.hpp"
#include "regress/incremental_ls.hpp"
#include "regress/linear_model.hpp"

namespace convmeter {
namespace {

/// Ordinary least squares through the production solver path: one
/// IncrementalLS pass, coefficients wrapped in a LinearModel.
LinearModel fit_rows(const std::vector<Vector>& rows, const Vector& y) {
  IncrementalLS ls(rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) ls.observe(rows[r], y[r]);
  return LinearModel::from_coefficients(ls.solve());
}

TEST(LinearModelTest, FitsExactLine) {
  const LinearModel m =
      fit_rows({{0.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}}, {1.0, 3.0, 5.0});
  EXPECT_NEAR(m.coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(m.coefficients()[1], 1.0, 1e-9);
  EXPECT_NEAR(m.predict({10.0, 1.0}), 21.0, 1e-8);
}

TEST(LinearModelTest, HandlesWildFeatureScales) {
  // FLOPs-like (1e9) next to a constant column — the conditioning case the
  // solver's internal column scaling exists for.
  Rng rng(3);
  constexpr std::size_t n = 64;
  std::vector<Vector> rows(n);
  Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    rows[r] = {rng.uniform(1e8, 5e10), 1.0};
    y[r] = 3e-12 * rows[r][0] + 0.25;
  }
  const LinearModel m = fit_rows(rows, y);
  EXPECT_NEAR(m.coefficients()[0], 3e-12, 1e-15);
  EXPECT_NEAR(m.coefficients()[1], 0.25, 1e-6);
}

TEST(LinearModelTest, FallsBackToRidgeOnRankDeficiency) {
  // Constant duplicate columns make the normal equations singular.
  const LinearModel m =
      fit_rows({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}}, {2.0, 2.0, 2.0});
  EXPECT_NEAR(m.predict({1.0, 1.0}), 2.0, 1e-3);
}

TEST(LinearModelTest, SerializationRoundTrip) {
  const LinearModel m = LinearModel::from_coefficients({2.0, 1.0 / 3.0});
  const LinearModel back = LinearModel::from_text(m.to_text());
  ASSERT_EQ(back.coefficients().size(), m.coefficients().size());
  for (std::size_t i = 0; i < m.coefficients().size(); ++i) {
    EXPECT_DOUBLE_EQ(back.coefficients()[i], m.coefficients()[i]);
  }
}

TEST(LinearModelTest, MalformedTextThrows) {
  EXPECT_THROW(LinearModel::from_text("nonsense"), ParseError);
  EXPECT_THROW(LinearModel::from_text("linear_model 3 1.0 2.0"), ParseError);
}

TEST(LinearModelTest, PredictWidthChecked) {
  const LinearModel m = LinearModel::from_coefficients({1.0, 1.0});
  EXPECT_THROW(m.predict({1.0}), InvalidArgument);
}

TEST(ErrorMetricsTest, PerfectPrediction) {
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const ErrorReport r = compute_errors(y, y);
  EXPECT_DOUBLE_EQ(r.r2, 1.0);
  EXPECT_DOUBLE_EQ(r.rmse, 0.0);
  EXPECT_DOUBLE_EQ(r.nrmse, 0.0);
  EXPECT_DOUBLE_EQ(r.mape, 0.0);
}

TEST(ErrorMetricsTest, HandComputedValues) {
  const std::vector<double> pred = {1.0, 2.0};
  const std::vector<double> meas = {2.0, 4.0};
  const ErrorReport r = compute_errors(pred, meas);
  // errors: 1, 2 -> rmse = sqrt(2.5); range = 2 -> nrmse = rmse/2.
  EXPECT_NEAR(r.rmse, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(r.nrmse, std::sqrt(2.5) / 2.0, 1e-12);
  // mape = mean(1/2, 2/4) = 0.5.
  EXPECT_NEAR(r.mape, 0.5, 1e-12);
  // ss_res = 5; mean = 3; ss_tot = 2 -> r2 = 1 - 2.5.
  EXPECT_NEAR(r.r2, 1.0 - 5.0 / 2.0, 1e-12);
}

TEST(ErrorMetricsTest, ZeroMeasurementsExcludedFromMape) {
  const ErrorReport r = compute_errors({1.0, 1.0}, {0.0, 2.0});
  EXPECT_NEAR(r.mape, 0.5, 1e-12);
}

TEST(ErrorMetricsTest, ConstantTargetsGiveZeroR2NotNan) {
  const ErrorReport r = compute_errors({1.0, 2.0}, {3.0, 3.0});
  EXPECT_DOUBLE_EQ(r.r2, 0.0);
  EXPECT_DOUBLE_EQ(r.nrmse, 0.0);
  EXPECT_FALSE(std::isnan(r.rmse));
}

TEST(ErrorMetricsTest, Validation) {
  EXPECT_THROW(compute_errors({1.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(compute_errors({1.0}, {1.0}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Streaming least squares (regress/incremental_ls.hpp): the exactness
// guarantees the sharded fit pipeline rests on.

TEST(ExactSumTest, SurvivesCatastrophicCancellation) {
  ExactSum sum;
  sum.add(1e16);
  sum.add(1.0);
  sum.add(-1e16);
  EXPECT_EQ(sum.value(), 1.0);  // naive double += loses the 1.0
}

TEST(ExactSumTest, OrderIndependentAcrossMagnitudes) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0)));
  }
  ExactSum forward;
  for (const double v : values) forward.add(v);
  ExactSum backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward.add(*it);
  EXPECT_TRUE(forward == backward);
  EXPECT_EQ(forward.value(), backward.value());
}

TEST(ExactSumTest, MergeEqualsSingleStreamAndSubtractInverts) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.uniform(-1e6, 1e6));

  ExactSum all;
  for (const double v : values) all.add(v);
  ExactSum front;
  ExactSum back;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < 100 ? front : back).add(values[i]);
  }
  ExactSum merged = front;
  merged.add(back);
  EXPECT_TRUE(merged == all);

  merged.subtract(back);
  EXPECT_TRUE(merged == front);
}

namespace {

/// Random wild-scale design in the shape the fit pipeline sees: a FLOPs-like
/// column, a moderate column, and an intercept.
void make_wild_system(Rng& rng, std::size_t n, Matrix* x, Vector* y) {
  *x = Matrix(n, 3);
  y->assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    (*x)(r, 0) = rng.uniform(1e8, 5e10);
    (*x)(r, 1) = rng.uniform(0.5, 64.0);
    (*x)(r, 2) = 1.0;
    (*y)[r] = 3e-12 * (*x)(r, 0) + 2e-3 * (*x)(r, 1) + 0.25 +
              rng.uniform(-1e-4, 1e-4);
  }
}

}  // namespace

TEST(IncrementalLSTest, MatchesBatchLeastSquares) {
  Rng rng(13);
  Matrix x;
  Vector y;
  make_wild_system(rng, 96, &x, &y);

  const Vector batch = solve_least_squares(x, y);
  IncrementalLS acc(3);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    acc.observe({x(r, 0), x(r, 1), x(r, 2)}, y[r]);
  }
  const Vector streamed = acc.solve();
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t c = 0; c < batch.size(); ++c) {
    EXPECT_NEAR(streamed[c], batch[c], 1e-10 * std::abs(batch[c]))
        << "coefficient " << c;
  }
}

TEST(IncrementalLSTest, ShardMergeIsBitIdenticalToSingleStream) {
  Rng rng(17);
  Matrix x;
  Vector y;
  make_wild_system(rng, 90, &x, &y);

  IncrementalLS single(3);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    single.observe({x(r, 0), x(r, 1), x(r, 2)}, y[r]);
  }

  // Three shards, round-robin split — a different accumulation order than
  // the single stream — then merged out of order.
  std::array<IncrementalLS, 3> shards{IncrementalLS(3), IncrementalLS(3),
                                      IncrementalLS(3)};
  for (std::size_t r = 0; r < x.rows(); ++r) {
    shards[r % 3].observe({x(r, 0), x(r, 1), x(r, 2)}, y[r]);
  }
  IncrementalLS merged(3);
  merged.merge(shards[2]);
  merged.merge(shards[0]);
  merged.merge(shards[1]);

  EXPECT_TRUE(merged == single);
  const Vector a = merged.solve();
  const Vector b = single.solve();
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c], b[c]) << "solve must be bit-identical, coefficient " << c;
  }
}

TEST(IncrementalLSTest, SubtractYieldsExactComplement) {
  Rng rng(19);
  Matrix x;
  Vector y;
  make_wild_system(rng, 60, &x, &y);

  IncrementalLS global(3);
  IncrementalLS group(3);
  IncrementalLS complement(3);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const Vector row = {x(r, 0), x(r, 1), x(r, 2)};
    global.observe(row, y[r]);
    (r % 4 == 0 ? group : complement).observe(row, y[r]);
  }
  IncrementalLS loo = global;
  loo.subtract(group);
  EXPECT_EQ(loo.count(), complement.count());
  // Statistics are exactly the complement's; solve() agrees to the last bit
  // modulo the conditioning-only max-abs scales kept from the union.
  const Vector a = loo.solve();
  const Vector b = complement.solve();
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_NEAR(a[c], b[c], 1e-12 * std::max(1.0, std::abs(b[c])));
  }
}

TEST(IncrementalLSTest, RankDeficientFallsBackToRidge) {
  IncrementalLS acc(2);
  for (int i = 0; i < 8; ++i) acc.observe({1.0, 1.0}, 2.0);
  const Vector beta = acc.solve();
  EXPECT_NEAR(beta[0] + beta[1], 2.0, 1e-3);
}

TEST(IncrementalLSTest, RejectsMismatchedShapes) {
  IncrementalLS a(2);
  IncrementalLS b(3);
  EXPECT_THROW(a.merge(b), InvalidArgument);
  EXPECT_THROW(a.observe({1.0, 2.0, 3.0}, 1.0), InvalidArgument);
  EXPECT_THROW(a.solve(), InvalidArgument);  // count() < cols()
}

}  // namespace
}  // namespace convmeter
