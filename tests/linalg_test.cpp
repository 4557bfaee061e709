// Linear algebra tests: QR least squares, Cholesky, statistics.
// Includes the planted-coefficient recovery property the regression relies
// on.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/stats.hpp"

namespace convmeter {
namespace {

TEST(MatrixTest, IndexingAndBounds) {
  Matrix m(2, 3);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_THROW(m(2, 0), InvalidArgument);
  EXPECT_THROW(m(0, 3), InvalidArgument);
}

TEST(LeastSquaresTest, ExactSquareSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 0;
  a(1, 0) = 0;
  a(1, 1) = 4;
  const Vector x = solve_least_squares(a, {6.0, 8.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LeastSquaresTest, OverdeterminedProjects) {
  // Fit y = 2x + 1 through three exact points.
  Matrix a(3, 2);
  const double xs[3] = {0.0, 1.0, 2.0};
  Vector y(3);
  for (int i = 0; i < 3; ++i) {
    a(static_cast<std::size_t>(i), 0) = xs[i];
    a(static_cast<std::size_t>(i), 1) = 1.0;
    y[static_cast<std::size_t>(i)] = 2.0 * xs[i] + 1.0;
  }
  const Vector c = solve_least_squares(a, y);
  EXPECT_NEAR(c[0], 2.0, 1e-12);
  EXPECT_NEAR(c[1], 1.0, 1e-12);
}

TEST(LeastSquaresTest, RankDeficientThrows) {
  Matrix a(3, 2);
  for (int i = 0; i < 3; ++i) {
    a(static_cast<std::size_t>(i), 0) = 1.0;
    a(static_cast<std::size_t>(i), 1) = 1.0;  // duplicate column
  }
  EXPECT_THROW(solve_least_squares(a, {1.0, 2.0, 3.0}), NumericalError);
}

TEST(LeastSquaresTest, RequiresEnoughRows) {
  Matrix a(1, 2, 1.0);
  EXPECT_THROW(solve_least_squares(a, {1.0}), InvalidArgument);
}

/// Planted-coefficient property: with noisy observations of a known linear
/// model, QR least squares recovers the coefficients.
class PlantedRecovery : public ::testing::TestWithParam<double> {};

TEST_P(PlantedRecovery, RecoversCoefficientsUnderNoise) {
  const double sigma = GetParam();
  Rng rng(77);
  const Vector truth = {3.0, -2.0, 0.5};
  constexpr std::size_t n = 400;
  Matrix a(n, 3);
  Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = rng.uniform(-1.0, 1.0);
      acc += a(r, c) * truth[c];
    }
    y[r] = acc + rng.normal(0.0, sigma);
  }
  const Vector est = solve_least_squares(a, y);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(est[c], truth[c], 5.0 * sigma / std::sqrt(n) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, PlantedRecovery,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5));

TEST(SpdTest, SolvesKnownSystem) {
  Matrix s(2, 2);
  s(0, 0) = 4;
  s(0, 1) = 1;
  s(1, 0) = 1;
  s(1, 1) = 3;
  const Vector x = solve_spd(s, {1.0, 2.0});
  EXPECT_NEAR(4 * x[0] + 1 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1 * x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(SpdTest, RejectsIndefinite) {
  Matrix s(2, 2);
  s(0, 0) = 1;
  s(0, 1) = 2;
  s(1, 0) = 2;
  s(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(solve_spd(s, {1.0, 1.0}), NumericalError);
}

TEST(StatsTest, BasicMoments) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(min_value(v), 1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 4.0);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(StatsTest, EmptyInputThrows) {
  EXPECT_THROW(mean({}), InvalidArgument);
  EXPECT_THROW(median({}), InvalidArgument);
  EXPECT_THROW(min_value({}), InvalidArgument);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> ny = {-2, -4, -6, -8};
  EXPECT_NEAR(pearson(x, ny), -1.0, 1e-12);
}

TEST(StatsTest, PearsonValidation) {
  EXPECT_THROW(pearson({1.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(pearson({1.0, 2.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(pearson({1.0, 1.0}, {1.0, 2.0}), InvalidArgument);
}

}  // namespace
}  // namespace convmeter
