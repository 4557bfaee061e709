// Gradient checks: every backward kernel is validated against central
// finite differences of its forward counterpart.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "common/error.hpp"
#include "exec/backward.hpp"
#include "exec/kernels.hpp"
#include "graph/shape_inference.hpp"

namespace convmeter {

// Printed in the listed test names of the AllKinds sweep; the default is a
// raw byte dump of the enum. Declared outside the anonymous namespace so
// argument-dependent lookup from gtest finds it next to ActKind.
void PrintTo(ActKind kind, std::ostream* os) { *os << act_kind_name(kind); }

namespace {

constexpr float kEps = 1e-3f;
constexpr float kTol = 2e-2f;  // float32 central differences are noisy

/// Scalar loss used by the checks: sum of all output elements weighted by
/// a fixed pseudo-random pattern (so every element matters differently).
double weighted_sum(const Tensor& t) {
  double acc = 0.0;
  const auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    acc += d[i] * (0.3 + 0.7 * static_cast<double>((i * 2654435761u) % 97) / 97.0);
  }
  return acc;
}

/// dL/dy for the weighted-sum loss.
Tensor weighted_ones(const Shape& shape) {
  Tensor t(shape);
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<float>(
        0.3 + 0.7 * static_cast<double>((i * 2654435761u) % 97) / 97.0);
  }
  return t;
}

/// Central-difference gradient of `loss(x)` w.r.t. x, compared element by
/// element with `analytic`.
void check_against_fd(Tensor& x, const std::function<double()>& loss,
                      const Tensor& analytic) {
  ASSERT_EQ(x.shape(), analytic.shape());
  auto d = x.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    const float saved = d[i];
    d[i] = saved + kEps;
    const double up = loss();
    d[i] = saved - kEps;
    const double down = loss();
    d[i] = saved;
    const double fd = (up - down) / (2.0 * kEps);
    ASSERT_NEAR(analytic.data()[i], fd,
                kTol * (1.0 + std::fabs(fd)))
        << "element " << i;
  }
}

TEST(ConvBackwardTest, GradInputMatchesFiniteDifferences) {
  const Conv2dAttrs a = Conv2dAttrs::square(2, 3, 3, 1, 1);
  Tensor x(Shape::nchw(1, 2, 4, 4));
  Tensor w(Shape({3, 2, 3, 3}));
  x.fill_random(1);
  w.fill_random(2);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(conv2d_output_shape(a, x.shape()));
  const ConvGradients g = conv2d_backward(pool, x, w, go, a);
  check_against_fd(
      x, [&] { return weighted_sum(conv2d_direct(x, w, Tensor(), a)); },
      g.grad_input);
}

TEST(ConvBackwardTest, GradWeightMatchesFiniteDifferences) {
  const Conv2dAttrs a = Conv2dAttrs::square(2, 2, 3, 2, 1);
  Tensor x(Shape::nchw(2, 2, 5, 5));
  Tensor w(Shape({2, 2, 3, 3}));
  x.fill_random(3);
  w.fill_random(4);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(conv2d_output_shape(a, x.shape()));
  const ConvGradients g = conv2d_backward(pool, x, w, go, a);
  check_against_fd(
      w, [&] { return weighted_sum(conv2d_direct(x, w, Tensor(), a)); },
      g.grad_weight);
}

TEST(ConvBackwardTest, GradBiasMatchesFiniteDifferences) {
  const Conv2dAttrs a = Conv2dAttrs::square(1, 2, 3, 1, 1, 1, true);
  Tensor x(Shape::nchw(1, 1, 4, 4));
  Tensor w(Shape({2, 1, 3, 3}));
  Tensor b(Shape{2});
  x.fill_random(5);
  w.fill_random(6);
  b.fill_random(7);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(conv2d_output_shape(a, x.shape()));
  const ConvGradients g = conv2d_backward(pool, x, w, go, a);
  check_against_fd(
      b, [&] { return weighted_sum(conv2d_direct(x, w, b, a)); }, g.grad_bias);
}

TEST(ConvBackwardTest, GroupedConvGradients) {
  const Conv2dAttrs a = Conv2dAttrs::square(4, 4, 3, 1, 1, 4);  // depthwise
  Tensor x(Shape::nchw(1, 4, 4, 4));
  Tensor w(Shape({4, 1, 3, 3}));
  x.fill_random(8);
  w.fill_random(9);
  ThreadPool pool(2);

  const Tensor go = weighted_ones(conv2d_output_shape(a, x.shape()));
  const ConvGradients g = conv2d_backward(pool, x, w, go, a);
  check_against_fd(
      x, [&] { return weighted_sum(conv2d_direct(x, w, Tensor(), a)); },
      g.grad_input);
  check_against_fd(
      w, [&] { return weighted_sum(conv2d_direct(x, w, Tensor(), a)); },
      g.grad_weight);
}

// ---- GEMM-based conv backward vs direct reference ---------------------------
//
// The production conv2d_backward computes both gradients as packed GEMMs over
// im2col tiles; conv2d_backward_direct is the septuple-loop oracle. The sweep
// deliberately hits every awkward geometry: dims that are not multiples of
// the GEMM tiles, groups, dilation, stride, asymmetric padding, and both a
// single image and a batch large enough to exercise the parallel partial-sum
// reduction.

struct ConvBwdCase {
  std::string name;
  std::int64_t batch, in_ch, out_ch, image, kernel, stride, pad_h, pad_w,
      groups, dilation;
  bool bias;
};

// Printed in the test's listed name; the default byte dump would include
// the name string's heap or stack address, which differs between runs.
void PrintTo(const ConvBwdCase& c, std::ostream* os) { *os << c.name; }

class ConvBackwardAgreement : public ::testing::TestWithParam<ConvBwdCase> {};

TEST_P(ConvBackwardAgreement, GemmPathMatchesDirect) {
  const ConvBwdCase& c = GetParam();
  Conv2dAttrs a = Conv2dAttrs::square(c.in_ch, c.out_ch, c.kernel, c.stride,
                                      0, c.groups, c.bias);
  a.pad_h = c.pad_h;
  a.pad_w = c.pad_w;
  a.dilation_h = a.dilation_w = c.dilation;

  Tensor x(Shape::nchw(c.batch, c.in_ch, c.image, c.image));
  Tensor w(Shape({c.out_ch, c.in_ch / c.groups, c.kernel, c.kernel}));
  x.fill_random(100);
  w.fill_random(101);
  Tensor go(conv2d_output_shape(a, x.shape()));
  go.fill_random(102);

  ThreadPool pool(3);
  const ConvGradients fast = conv2d_backward(pool, x, w, go, a);
  const ConvGradients ref = conv2d_backward_direct(pool, x, w, go, a);

  const auto expect_close = [](const Tensor& got, const Tensor& want,
                               const char* what) {
    ASSERT_EQ(got.shape(), want.shape()) << what;
    const auto g = got.data();
    const auto r = want.data();
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_NEAR(g[i], r[i], 1e-4f * (1.0f + std::fabs(r[i])))
          << what << " element " << i;
    }
  };
  expect_close(fast.grad_input, ref.grad_input, "grad_input");
  expect_close(fast.grad_weight, ref.grad_weight, "grad_weight");
  if (c.bias) expect_close(fast.grad_bias, ref.grad_bias, "grad_bias");
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialSweep, ConvBackwardAgreement,
    ::testing::Values(
        ConvBwdCase{"plain3x3", 2, 3, 5, 8, 3, 1, 1, 1, 1, 1, true},
        ConvBwdCase{"batch1", 1, 4, 6, 9, 3, 1, 1, 1, 1, 1, false},
        ConvBwdCase{"batch17", 17, 2, 3, 6, 3, 1, 1, 1, 1, 1, true},
        ConvBwdCase{"groups3", 1, 6, 9, 8, 3, 1, 1, 1, 3, 1, false},
        ConvBwdCase{"depthwise", 4, 5, 5, 7, 3, 1, 1, 1, 5, 1, true},
        ConvBwdCase{"dilation2", 2, 3, 4, 11, 3, 1, 2, 2, 1, 2, false},
        ConvBwdCase{"stride3", 2, 3, 4, 11, 3, 3, 1, 1, 1, 1, false},
        ConvBwdCase{"asym_pad", 2, 3, 4, 8, 3, 1, 2, 0, 1, 1, true},
        ConvBwdCase{"offtile_dims", 3, 7, 13, 10, 3, 2, 1, 1, 1, 1, false},
        ConvBwdCase{"pointwise", 2, 8, 11, 6, 1, 1, 0, 0, 1, 1, true}),
    [](const auto& info) { return info.param.name; });

TEST(ConvBackwardTest, BitwiseStableGradBiasAcrossThreadCounts) {
  const Conv2dAttrs a = Conv2dAttrs::square(3, 6, 3, 1, 1, 1, true);
  Tensor x(Shape::nchw(5, 3, 9, 9));
  Tensor w(Shape({6, 3, 3, 3}));
  x.fill_random(110);
  w.fill_random(111);
  Tensor go(conv2d_output_shape(a, x.shape()));
  go.fill_random(112);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const ConvGradients g1 = conv2d_backward(pool1, x, w, go, a);
  const ConvGradients g4 = conv2d_backward(pool4, x, w, go, a);
  EXPECT_EQ(g1.grad_bias.max_abs_diff(g4.grad_bias), 0.0f);
  EXPECT_EQ(g1.grad_input.max_abs_diff(g4.grad_input), 0.0f);
  // grad_weight sums batch contributions in slot order; allow rounding-level
  // differences from the different grouping, nothing more.
  EXPECT_LT(g1.grad_weight.max_abs_diff(g4.grad_weight), 1e-5f);
}

TEST(LinearBackwardTest, AllGradientsMatchFiniteDifferences) {
  const LinearAttrs a{5, 3, true};
  Tensor x(Shape{2, 5});
  Tensor w(Shape{3, 5});
  Tensor b(Shape{3});
  x.fill_random(10);
  w.fill_random(11);
  b.fill_random(12);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(Shape{2, 3});
  const LinearGradients g = linear_backward(pool, x, w, go, a);
  const auto loss = [&] { return weighted_sum(linear(pool, x, w, b, a)); };
  check_against_fd(x, loss, g.grad_input);
  check_against_fd(w, loss, g.grad_weight);
  check_against_fd(b, loss, g.grad_bias);
}

class ActivationBackwardTest : public ::testing::TestWithParam<ActKind> {};

TEST_P(ActivationBackwardTest, MatchesFiniteDifferences) {
  Tensor x(Shape{24});
  x.fill_random(13);
  // Shift away from the non-differentiable knots of the piecewise
  // activations.
  for (float& v : x.data()) v = v * 2.0f + 0.11f;

  ThreadPool pool(1);
  const Tensor go = weighted_ones(x.shape());
  const Tensor g = activation_backward(x, go, GetParam());
  check_against_fd(
      x, [&] { return weighted_sum(activation(pool, x, GetParam())); }, g);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ActivationBackwardTest,
    ::testing::Values(ActKind::kReLU, ActKind::kReLU6, ActKind::kSiLU,
                      ActKind::kSigmoid, ActKind::kHardSwish,
                      ActKind::kHardSigmoid, ActKind::kTanh),
    [](const auto& info) { return act_kind_name(info.param); });

TEST(PoolBackwardTest, MaxPoolRoutesToArgmax) {
  const Pool2dAttrs a = Pool2dAttrs::square(2, 2);
  Tensor x(Shape::nchw(1, 1, 4, 4));
  x.fill_random(14);
  const Tensor go = weighted_ones(pool2d_output_shape(a, x.shape()));
  const Tensor g = max_pool2d_backward(x, go, a);
  ThreadPool pool(1);
  check_against_fd(x, [&] { return weighted_sum(max_pool2d(pool, x, a)); }, g);
}

TEST(PoolBackwardTest, AvgPoolSpreadsUniformly) {
  const Pool2dAttrs a = Pool2dAttrs::square(2, 2);
  Tensor x(Shape::nchw(1, 2, 4, 4));
  x.fill_random(15);
  const Tensor go = weighted_ones(pool2d_output_shape(a, x.shape()));
  const Tensor g = avg_pool2d_backward(x, go, a);
  ThreadPool pool(1);
  check_against_fd(x, [&] { return weighted_sum(avg_pool2d(pool, x, a)); }, g);
}

TEST(PoolBackwardTest, AdaptiveAvgPoolGradient) {
  Tensor x(Shape::nchw(1, 2, 5, 5));
  x.fill_random(16);
  const Tensor go = weighted_ones(Shape::nchw(1, 2, 2, 2));
  const Tensor g = adaptive_avg_pool2d_backward(x, go);
  ThreadPool pool(1);
  check_against_fd(
      x, [&] { return weighted_sum(adaptive_avg_pool2d(pool, x, 2, 2)); }, g);
}

TEST(BatchNormBackwardTest, AffineGradientsMatchFiniteDifferences) {
  Tensor x(Shape::nchw(2, 3, 3, 3));
  Tensor gamma(Shape{3});
  Tensor beta(Shape{3});
  Tensor mean(Shape{3}, 0.2f);
  Tensor var(Shape{3}, 1.5f);
  x.fill_random(17);
  gamma.fill_random(18);
  beta.fill_random(19);

  const Tensor go = weighted_ones(x.shape());
  const BatchNormGradients g =
      batch_norm2d_backward(x, gamma, mean, var, go);
  ThreadPool pool(1);
  const auto loss = [&] {
    return weighted_sum(batch_norm2d(pool, x, gamma, beta, mean, var));
  };
  check_against_fd(x, loss, g.grad_input);
  check_against_fd(gamma, loss, g.grad_gamma);
  check_against_fd(beta, loss, g.grad_beta);
}

TEST(LinearBackwardTest, Rank3InputFoldsTokensIntoRows) {
  const LinearAttrs a{4, 3, true};
  Tensor x(Shape{2, 3, 4});
  Tensor w(Shape{3, 4});
  Tensor b(Shape{3});
  x.fill_random(40);
  w.fill_random(41);
  b.fill_random(42);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(Shape{2, 3, 3});
  const LinearGradients g = linear_backward(pool, x, w, go, a);
  const auto loss = [&] { return weighted_sum(linear(pool, x, w, b, a)); };
  check_against_fd(x, loss, g.grad_input);
  check_against_fd(w, loss, g.grad_weight);
  check_against_fd(b, loss, g.grad_bias);
}

TEST(LayerNormBackwardTest, AllGradientsMatchFiniteDifferences) {
  const LayerNormAttrs a{6};
  Tensor x(Shape{2, 4, 6});
  Tensor gamma(Shape{6});
  Tensor beta(Shape{6});
  x.fill_random(43);
  gamma.fill_random(44);
  beta.fill_random(45);
  // Keep gamma away from zero so relative FD tolerances stay meaningful.
  for (float& v : gamma.data()) v += (v >= 0.0f ? 0.5f : -0.5f);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(x.shape());
  const LayerNormGradients g = layer_norm_backward(pool, x, gamma, go, a);
  const auto loss = [&] {
    return weighted_sum(layer_norm(pool, x, gamma, beta, a));
  };
  check_against_fd(x, loss, g.grad_input);
  check_against_fd(gamma, loss, g.grad_gamma);
  check_against_fd(beta, loss, g.grad_beta);
}

TEST(LayerNormBackwardTest, BitwiseStableAcrossThreadCounts) {
  const LayerNormAttrs a{8};
  Tensor x(Shape{4, 30, 8});
  Tensor gamma(Shape{8});
  x.fill_random(46);
  gamma.fill_random(47);
  const Tensor go = weighted_ones(x.shape());
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const LayerNormGradients g1 = layer_norm_backward(pool1, x, gamma, go, a);
  const LayerNormGradients g4 = layer_norm_backward(pool4, x, gamma, go, a);
  EXPECT_EQ(g1.grad_input.max_abs_diff(g4.grad_input), 0.0f);
  EXPECT_EQ(g1.grad_gamma.max_abs_diff(g4.grad_gamma), 0.0f);
  EXPECT_EQ(g1.grad_beta.max_abs_diff(g4.grad_beta), 0.0f);
}

TEST(SelfAttentionBackwardTest, AllGradientsMatchFiniteDifferences) {
  const SelfAttentionAttrs a{4, 2};
  Tensor x(Shape{2, 3, 4});
  Tensor wi(Shape{12, 4});
  Tensor bi(Shape{12});
  Tensor wo(Shape{4, 4});
  Tensor bo(Shape{4});
  x.fill_random(50);
  wi.fill_random(51);
  bi.fill_random(52);
  wo.fill_random(53);
  bo.fill_random(54);
  ThreadPool pool(1);

  const Tensor go = weighted_ones(x.shape());
  const AttentionGradients g =
      self_attention_backward(pool, x, wi, bi, wo, bo, go, a);
  const auto loss = [&] {
    return weighted_sum(self_attention(pool, x, wi, bi, wo, bo, a));
  };
  check_against_fd(x, loss, g.grad_input);
  check_against_fd(wi, loss, g.grad_in_proj_w);
  check_against_fd(bi, loss, g.grad_in_proj_b);
  check_against_fd(wo, loss, g.grad_out_proj_w);
  check_against_fd(bo, loss, g.grad_out_proj_b);
}

TEST(SelfAttentionBackwardTest, BitwiseStableAcrossThreadCounts) {
  const SelfAttentionAttrs a{8, 2};
  Tensor x(Shape{2, 9, 8});
  Tensor wi(Shape{24, 8});
  Tensor bi(Shape{24});
  Tensor wo(Shape{8, 8});
  Tensor bo(Shape{8});
  x.fill_random(55);
  wi.fill_random(56);
  bi.fill_random(57);
  wo.fill_random(58);
  bo.fill_random(59);
  const Tensor go = weighted_ones(x.shape());
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const AttentionGradients g1 =
      self_attention_backward(pool1, x, wi, bi, wo, bo, go, a);
  const AttentionGradients g4 =
      self_attention_backward(pool4, x, wi, bi, wo, bo, go, a);
  EXPECT_EQ(g1.grad_input.max_abs_diff(g4.grad_input), 0.0f);
  EXPECT_EQ(g1.grad_in_proj_w.max_abs_diff(g4.grad_in_proj_w), 0.0f);
  EXPECT_EQ(g1.grad_in_proj_b.max_abs_diff(g4.grad_in_proj_b), 0.0f);
  EXPECT_EQ(g1.grad_out_proj_w.max_abs_diff(g4.grad_out_proj_w), 0.0f);
  EXPECT_EQ(g1.grad_out_proj_b.max_abs_diff(g4.grad_out_proj_b), 0.0f);
}

TEST(ToTokensBackwardTest, MatchesFiniteDifferences) {
  ThreadPool pool(1);
  Tensor cls(Shape{3});
  cls.fill_random(60);
  for (const bool with_cls : {false, true}) {
    SCOPED_TRACE(with_cls ? "with cls" : "no cls");
    const ToTokensAttrs a{with_cls};
    Tensor x(Shape::nchw(2, 3, 2, 2));
    x.fill_random(61);
    const Tensor go = weighted_ones(Shape{2, with_cls ? 5 : 4, 3});
    const Tensor g = to_tokens_backward(x.shape(), go, a);
    check_against_fd(
        x,
        [&] {
          return weighted_sum(
              to_tokens(pool, x, with_cls ? cls : Tensor(), a));
        },
        g);
  }
}

TEST(SelectTokenBackwardTest, MatchesFiniteDifferences) {
  Tensor x(Shape{2, 4, 3});
  x.fill_random(62);
  const Tensor go = weighted_ones(Shape{2, 3});
  const Tensor g = select_token_backward(x.shape(), go, 1);
  check_against_fd(x, [&] { return weighted_sum(select_token(x, 1)); }, g);
}

TEST(TransposeTokensBackwardTest, TransposeOfGradientMatchesFiniteDifferences) {
  // transpose_tokens is a fixed permutation, so its backward is the same
  // kernel applied to the upstream gradient (an involution).
  ThreadPool pool(1);
  Tensor x(Shape{2, 3, 4});
  x.fill_random(63);
  const Tensor go = weighted_ones(Shape{2, 4, 3});
  const Tensor g = transpose_tokens(pool, go);
  check_against_fd(
      x, [&] { return weighted_sum(transpose_tokens(pool, x)); }, g);
}

TEST(FlattenBackwardTest, ReshapesGradient) {
  const Shape in = Shape::nchw(2, 3, 2, 2);
  Tensor go(Shape{2, 12});
  go.fill_random(20);
  const Tensor g = flatten_backward(in, go);
  EXPECT_EQ(g.shape(), in);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_FLOAT_EQ(g.at(i), go.at(i));
  }
}

TEST(BackwardValidationTest, ShapeMismatchesThrow) {
  ThreadPool pool(1);
  const Conv2dAttrs a = Conv2dAttrs::square(2, 3, 3, 1, 1);
  Tensor x(Shape::nchw(1, 2, 4, 4));
  Tensor w(Shape({3, 2, 3, 3}));
  Tensor bad_go(Shape::nchw(1, 3, 9, 9));
  EXPECT_THROW(conv2d_backward(pool, x, w, bad_go, a), InvalidArgument);
  EXPECT_THROW(
      activation_backward(x, Tensor(Shape::nchw(1, 2, 3, 3)), ActKind::kReLU),
      InvalidArgument);
  EXPECT_THROW(flatten_backward(Shape::nchw(1, 2, 2, 2), Tensor(Shape{1, 9})),
               InvalidArgument);
}

}  // namespace
}  // namespace convmeter
