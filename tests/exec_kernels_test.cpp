// Kernel correctness tests. The central property: the production
// im2col+GEMM convolution agrees with the direct reference convolution for
// a parameterized sweep of configurations (stride, padding, groups,
// rectangular kernels, dilation).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "exec/kernels.hpp"
#include "exec/workspace.hpp"
#include "graph/shape_inference.hpp"

namespace convmeter {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  t.fill_random(seed);
  return t;
}

// ---- GEMM -------------------------------------------------------------------

TEST(GemmTest, MatchesNaiveTripleLoop) {
  ThreadPool pool(2);
  constexpr std::size_t m = 37;
  constexpr std::size_t k = 53;
  constexpr std::size_t n = 29;
  const Tensor a = random_tensor(Shape{static_cast<std::int64_t>(m),
                                       static_cast<std::int64_t>(k)},
                                 1);
  const Tensor b = random_tensor(Shape{static_cast<std::int64_t>(k),
                                       static_cast<std::int64_t>(n)},
                                 2);
  std::vector<float> c(m * n, 0.0f);
  gemm(pool, a.data(), b.data(), c, m, k, n);

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a.data()[i * k + kk] * b.data()[kk * n + j];
      }
      ASSERT_NEAR(c[i * n + j], acc, 1e-4f) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(GemmTest, AccumulatesIntoExistingC) {
  ThreadPool pool(1);
  const Tensor a = random_tensor(Shape{4, 4}, 3);
  const Tensor b = random_tensor(Shape{4, 4}, 4);
  std::vector<float> once(16, 0.0f);
  gemm(pool, a.data(), b.data(), once, 4, 4, 4);
  std::vector<float> twice(16, 0.0f);
  gemm(pool, a.data(), b.data(), twice, 4, 4, 4);
  gemm(pool, a.data(), b.data(), twice, 4, 4, 4);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-4f);
  }
}

TEST(GemmTest, SizeMismatchThrows) {
  ThreadPool pool(1);
  std::vector<float> a(4), b(4), c(3);
  EXPECT_THROW(gemm(pool, a, b, c, 2, 2, 2), InvalidArgument);
}

// ---- packed GEMM property suite ---------------------------------------------

/// Naive reference: C = A_op * B_op + beta * C in double precision.
std::vector<float> naive_gemm(const std::vector<float>& a, bool ta,
                              const std::vector<float>& b, bool tb,
                              const std::vector<float>& c0, std::size_t m,
                              std::size_t k, std::size_t n, float beta) {
  std::vector<float> c(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a[kk * m + i] : a[i * k + kk];
        const float bv = tb ? b[j * k + kk] : b[kk * n + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * n + j] =
          static_cast<float>(acc) + beta * (beta != 0.0f ? c0[i * n + j] : 0.0f);
    }
  }
  return c;
}

std::vector<float> random_vec(std::size_t size, std::uint64_t seed) {
  Tensor t(Shape{static_cast<std::int64_t>(size)});
  t.fill_random(seed);
  return std::vector<float>(t.data().begin(), t.data().end());
}

void expect_close_rel(const std::vector<float>& got,
                      const std::vector<float>& want, float rel_tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = rel_tol * (1.0f + std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

TEST(PackedGemmTest, AllTransposeAndBetaVariantsMatchReference) {
  ThreadPool pool(2);
  // Adversarial shapes: every combination of (multiple / non-multiple) of
  // the 6x16 register tile and the 72/256/512 cache blocks, plus degenerate
  // single-row/col cases.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1},    {6, 16, 16},  {5, 7, 3},     {37, 53, 29},
                {72, 256, 48}, {73, 257, 49}, {13, 1, 17},  {2, 300, 530},
                {144, 512, 32}};
  for (const auto& sh : shapes) {
    const std::vector<float> a = random_vec(sh.m * sh.k, 101 + sh.m);
    const std::vector<float> b = random_vec(sh.k * sh.n, 202 + sh.n);
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const float beta : {0.0f, 1.0f}) {
          // beta == 0 must fully overwrite C: poison it with NaN to catch
          // any read-before-write or skipped element.
          std::vector<float> c =
              beta == 0.0f
                  ? std::vector<float>(
                        sh.m * sh.n, std::numeric_limits<float>::quiet_NaN())
                  : random_vec(sh.m * sh.n, 303);
          const std::vector<float> want =
              naive_gemm(a, ta, b, tb, c, sh.m, sh.k, sh.n, beta);
          GemmOpts opts;
          opts.trans_a = ta ? Trans::kYes : Trans::kNo;
          opts.trans_b = tb ? Trans::kYes : Trans::kNo;
          opts.beta = beta;
          gemm(pool, a, b, c, sh.m, sh.k, sh.n, opts);
          SCOPED_TRACE(::testing::Message()
                       << "m=" << sh.m << " k=" << sh.k << " n=" << sh.n
                       << " ta=" << ta << " tb=" << tb << " beta=" << beta);
          expect_close_rel(c, want, 1e-4f);
        }
      }
    }
  }
}

TEST(PackedGemmTest, FusedBiasAndActivationEpilogue) {
  ThreadPool pool(2);
  constexpr std::size_t m = 19, k = 33, n = 41;
  const std::vector<float> a = random_vec(m * k, 7);
  const std::vector<float> b = random_vec(k * n, 8);
  const std::vector<float> row_bias = random_vec(m, 9);
  const std::vector<float> col_bias = random_vec(n, 10);

  std::vector<float> plain(m * n, 0.0f);
  GemmOpts base;
  base.beta = 0.0f;
  gemm(pool, a, b, plain, m, k, n, base);

  std::vector<float> fused(m * n, std::numeric_limits<float>::quiet_NaN());
  GemmOpts opts;
  opts.beta = 0.0f;
  opts.row_bias = row_bias.data();
  opts.col_bias = col_bias.data();
  opts.act = ActKind::kReLU;
  gemm(pool, a, b, fused, m, k, n, opts);

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const float pre = plain[i * n + j] + row_bias[i] + col_bias[j];
      const float want = pre > 0.0f ? pre : 0.0f;
      ASSERT_NEAR(fused[i * n + j], want, 1e-5f)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(PackedGemmTest, BitIdenticalAcrossThreadCounts) {
  // The campaign engine asserts measurement determinism across --jobs; tile
  // boundaries are constants, so the summation order per element must not
  // depend on the pool size.
  constexpr std::size_t m = 130, k = 300, n = 70;
  const std::vector<float> a = random_vec(m * k, 21);
  const std::vector<float> b = random_vec(k * n, 22);
  std::vector<float> c1(m * n, 0.0f), c4(m * n, 0.0f);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  gemm(pool1, a, b, c1, m, k, n);
  gemm(pool4, a, b, c4, m, k, n);
  EXPECT_EQ(c1, c4);
}

// ---- conv2d: im2col vs direct ------------------------------------------------

struct ConvCase {
  std::string name;
  std::int64_t batch, in_ch, out_ch, image, kernel, stride, pad, groups,
      dilation;
  bool bias;
};

// Printed in the test's listed name; the default byte dump would include
// the string's buffer address, which differs from one run to the next.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

class ConvAgreement : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvAgreement, Im2colMatchesDirect) {
  const ConvCase& c = GetParam();
  Conv2dAttrs a = Conv2dAttrs::square(c.in_ch, c.out_ch, c.kernel, c.stride,
                                      c.pad, c.groups, c.bias);
  a.dilation_h = a.dilation_w = c.dilation;

  const Tensor input =
      random_tensor(Shape::nchw(c.batch, c.in_ch, c.image, c.image), 10);
  const Tensor weight = random_tensor(
      Shape({c.out_ch, c.in_ch / c.groups, c.kernel, c.kernel}), 11);
  const Tensor bias = c.bias ? random_tensor(Shape{c.out_ch}, 12) : Tensor();

  const Tensor ref = conv2d_direct(input, weight, bias, a);
  ThreadPool pool(2);
  const Tensor fast = conv2d_im2col(pool, input, weight, bias, a);

  ASSERT_EQ(ref.shape(), fast.shape());
  EXPECT_LT(ref.max_abs_diff(fast), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvAgreement,
    ::testing::Values(
        ConvCase{"plain3x3", 1, 3, 8, 8, 3, 1, 1, 1, 1, false},
        ConvCase{"stride2", 2, 4, 6, 9, 3, 2, 1, 1, 1, false},
        ConvCase{"pointwise", 1, 8, 16, 7, 1, 1, 0, 1, 1, false},
        ConvCase{"kernel5pad2", 1, 2, 4, 11, 5, 1, 2, 1, 1, true},
        ConvCase{"grouped", 1, 8, 8, 8, 3, 1, 1, 4, 1, false},
        ConvCase{"depthwise", 2, 6, 6, 10, 3, 1, 1, 6, 1, false},
        ConvCase{"dilated", 1, 3, 5, 13, 3, 1, 2, 1, 2, false},
        ConvCase{"stem7x7s2", 1, 3, 8, 32, 7, 2, 3, 1, 1, false},
        ConvCase{"nopad_shrink", 1, 4, 4, 6, 3, 1, 0, 1, 1, true},
        ConvCase{"batch4", 4, 3, 5, 8, 3, 1, 1, 1, 1, true}),
    [](const auto& info) { return info.param.name; });

TEST(ConvTest, RectangularKernel1x7) {
  Conv2dAttrs a;
  a.in_channels = 3;
  a.out_channels = 4;
  a.kernel_h = 1;
  a.kernel_w = 7;
  a.pad_w = 3;
  const Tensor input = random_tensor(Shape::nchw(1, 3, 9, 9), 20);
  const Tensor weight = random_tensor(Shape({4, 3, 1, 7}), 21);
  const Tensor ref = conv2d_direct(input, weight, Tensor(), a);
  ThreadPool pool(2);
  const Tensor fast = conv2d_im2col(pool, input, weight, Tensor(), a);
  EXPECT_EQ(ref.shape(), Shape::nchw(1, 4, 9, 9));
  EXPECT_LT(ref.max_abs_diff(fast), 1e-4f);
}

TEST(ConvTest, IdentityKernelPreservesInput) {
  // 1x1 conv with identity weights on matching channels.
  Conv2dAttrs a = Conv2dAttrs::square(2, 2, 1);
  Tensor weight(Shape({2, 2, 1, 1}));
  weight.at4(0, 0, 0, 0) = 1.0f;
  weight.at4(1, 1, 0, 0) = 1.0f;
  const Tensor input = random_tensor(Shape::nchw(1, 2, 4, 4), 22);
  const Tensor out = conv2d_direct(input, weight, Tensor(), a);
  EXPECT_LT(out.max_abs_diff(input), 1e-6f);
}

TEST(ConvTest, FusedActivationMatchesSeparatePass) {
  ThreadPool pool(2);
  const Conv2dAttrs a = Conv2dAttrs::square(4, 8, 3, 1, 1, 1, true);
  const Tensor input = random_tensor(Shape::nchw(2, 4, 9, 9), 31);
  const Tensor weight = random_tensor(Shape({8, 4, 3, 3}), 32);
  const Tensor bias = random_tensor(Shape{8}, 33);
  const Tensor separate =
      activation(pool, conv2d_im2col(pool, input, weight, bias, a),
                 ActKind::kReLU);
  const Tensor fused =
      conv2d_im2col(pool, input, weight, bias, a, ActKind::kReLU);
  ASSERT_EQ(separate.shape(), fused.shape());
  EXPECT_EQ(separate.max_abs_diff(fused), 0.0f);
}

TEST(ConvTest, BitIdenticalAcrossThreadCounts) {
  const Conv2dAttrs a = Conv2dAttrs::square(6, 12, 3, 1, 1, 2, true);
  const Tensor input = random_tensor(Shape::nchw(3, 6, 17, 17), 41);
  const Tensor weight = random_tensor(Shape({12, 3, 3, 3}), 42);
  const Tensor bias = random_tensor(Shape{12}, 43);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const Tensor r1 = conv2d_im2col(pool1, input, weight, bias, a);
  const Tensor r4 = conv2d_im2col(pool4, input, weight, bias, a);
  EXPECT_EQ(r1.max_abs_diff(r4), 0.0f);
}

// ---- workspace arena ---------------------------------------------------------

TEST(WorkspaceTest, SteadyStateConvPerformsNoArenaGrowth) {
  ThreadPool pool(2);
  const Conv2dAttrs a = Conv2dAttrs::square(8, 16, 3, 1, 1, 1, true);
  const Tensor input = random_tensor(Shape::nchw(2, 8, 16, 16), 51);
  const Tensor weight = random_tensor(Shape({16, 8, 3, 3}), 52);
  const Tensor bias = random_tensor(Shape{16}, 53);
  // Warm-up: every participating thread sizes its arena (static scheduling
  // gives each thread the same chunk on every identical call).
  conv2d_im2col(pool, input, weight, bias, a);
  conv2d_im2col(pool, input, weight, bias, a);
  const std::uint64_t grows = Workspace::total_grows();
  const std::uint64_t bytes = Workspace::total_bytes();
  for (int i = 0; i < 5; ++i) {
    conv2d_im2col(pool, input, weight, bias, a);
  }
  EXPECT_EQ(Workspace::total_grows(), grows)
      << "steady-state conv calls must not reallocate workspace memory";
  EXPECT_EQ(Workspace::total_bytes(), bytes);
}

TEST(WorkspaceTest, SteadyStateGemmPerformsNoArenaGrowth) {
  ThreadPool pool(2);
  constexpr std::size_t m = 96, k = 128, n = 160;
  const std::vector<float> a = random_vec(m * k, 61);
  const std::vector<float> b = random_vec(k * n, 62);
  std::vector<float> c(m * n, 0.0f);
  gemm(pool, a, b, c, m, k, n);
  gemm(pool, a, b, c, m, k, n);
  const std::uint64_t grows = Workspace::total_grows();
  for (int i = 0; i < 5; ++i) gemm(pool, a, b, c, m, k, n);
  EXPECT_EQ(Workspace::total_grows(), grows);
}

TEST(WorkspaceTest, TakeBeyondReserveThrows) {
  Workspace& ws = Workspace::tls();
  ws.reserve(8);
  ws.take(8);
  EXPECT_THROW(ws.take(1), InvalidArgument);
}

// ---- pooling -----------------------------------------------------------------

TEST(PoolTest, MaxPoolHandComputed) {
  Tensor in(Shape::nchw(1, 1, 2, 2));
  in.at4(0, 0, 0, 0) = 1.0f;
  in.at4(0, 0, 0, 1) = 5.0f;
  in.at4(0, 0, 1, 0) = -2.0f;
  in.at4(0, 0, 1, 1) = 0.5f;
  ThreadPool pool(2);
  const Tensor out = max_pool2d(pool, in, Pool2dAttrs::square(2, 2));
  ASSERT_EQ(out.shape(), Shape::nchw(1, 1, 1, 1));
  EXPECT_EQ(out.at4(0, 0, 0, 0), 5.0f);
}

TEST(PoolTest, AvgPoolHandComputed) {
  Tensor in(Shape::nchw(1, 1, 2, 2));
  in.at4(0, 0, 0, 0) = 1.0f;
  in.at4(0, 0, 0, 1) = 2.0f;
  in.at4(0, 0, 1, 0) = 3.0f;
  in.at4(0, 0, 1, 1) = 6.0f;
  ThreadPool pool(2);
  const Tensor out = avg_pool2d(pool, in, Pool2dAttrs::square(2, 2));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 3.0f);
}

TEST(PoolTest, MaxPoolIgnoresPadding) {
  // All-negative input: padded zeros must not win the max.
  Tensor in(Shape::nchw(1, 1, 3, 3), -4.0f);
  ThreadPool pool(2);
  const Tensor out = max_pool2d(pool, in, Pool2dAttrs::square(3, 1, 1));
  for (const float v : out.data()) EXPECT_EQ(v, -4.0f);
}

TEST(PoolTest, AdaptiveAvgPoolToOneIsGlobalMean) {
  Tensor in(Shape::nchw(1, 2, 4, 4));
  float v = 0.0f;
  for (float& x : in.data()) x = v++;
  ThreadPool pool(2);
  const Tensor out = adaptive_avg_pool2d(pool, in, 1, 1);
  ASSERT_EQ(out.shape(), Shape::nchw(1, 2, 1, 1));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 7.5f);   // mean of 0..15
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 23.5f);  // mean of 16..31
}

TEST(PoolTest, AdaptiveAvgPoolIdentityWhenSizesMatch) {
  const Tensor in = random_tensor(Shape::nchw(1, 3, 5, 5), 30);
  ThreadPool pool(2);
  const Tensor out = adaptive_avg_pool2d(pool, in, 5, 5);
  EXPECT_LT(out.max_abs_diff(in), 1e-6f);
}

// ---- activations --------------------------------------------------------------

TEST(ActivationTest, ReluClampsNegatives) {
  Tensor in(Shape{4});
  in.at(0) = -1.0f;
  in.at(1) = 0.0f;
  in.at(2) = 2.0f;
  in.at(3) = -0.5f;
  ThreadPool pool(1);
  const Tensor out = activation(pool, in, ActKind::kReLU);
  EXPECT_EQ(out.at(0), 0.0f);
  EXPECT_EQ(out.at(2), 2.0f);
  EXPECT_EQ(out.at(3), 0.0f);
}

TEST(ActivationTest, Relu6Caps) {
  Tensor in(Shape{2});
  in.at(0) = 10.0f;
  in.at(1) = 3.0f;
  ThreadPool pool(1);
  const Tensor out = activation(pool, in, ActKind::kReLU6);
  EXPECT_EQ(out.at(0), 6.0f);
  EXPECT_EQ(out.at(1), 3.0f);
}

TEST(ActivationTest, SigmoidAtZeroIsHalf) {
  Tensor in(Shape{1});
  ThreadPool pool(1);
  const Tensor out = activation(pool, in, ActKind::kSigmoid);
  EXPECT_FLOAT_EQ(out.at(0), 0.5f);
}

TEST(ActivationTest, SiluMatchesDefinition) {
  Tensor in(Shape{1});
  in.at(0) = 1.5f;
  ThreadPool pool(1);
  const Tensor out = activation(pool, in, ActKind::kSiLU);
  EXPECT_NEAR(out.at(0), 1.5 / (1.0 + std::exp(-1.5)), 1e-6);
}

TEST(ActivationTest, HardSwishKnots) {
  Tensor in(Shape{3});
  in.at(0) = -3.0f;  // -> 0
  in.at(1) = 3.0f;   // -> 3
  in.at(2) = 0.0f;   // -> 0
  ThreadPool pool(1);
  const Tensor out = activation(pool, in, ActKind::kHardSwish);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1), 3.0f);
  EXPECT_FLOAT_EQ(out.at(2), 0.0f);
}

TEST(ActivationTest, HardSigmoidSaturates) {
  Tensor in(Shape{3});
  in.at(0) = -10.0f;
  in.at(1) = 10.0f;
  in.at(2) = 0.0f;
  ThreadPool pool(1);
  const Tensor out = activation(pool, in, ActKind::kHardSigmoid);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1), 1.0f);
  EXPECT_FLOAT_EQ(out.at(2), 0.5f);
}

// ---- batch norm ----------------------------------------------------------------

TEST(BatchNormTest, IdentityParamsPassThrough) {
  const Tensor in = random_tensor(Shape::nchw(1, 3, 4, 4), 40);
  Tensor gamma(Shape{3}, 1.0f);
  Tensor beta(Shape{3}, 0.0f);
  Tensor mean(Shape{3}, 0.0f);
  Tensor var(Shape{3}, 1.0f);
  ThreadPool pool(2);
  const Tensor out = batch_norm2d(pool, in, gamma, beta, mean, var, 0.0);
  EXPECT_LT(out.max_abs_diff(in), 1e-6f);
}

TEST(BatchNormTest, NormalizesWithRunningStats) {
  Tensor in(Shape::nchw(1, 1, 1, 2));
  in.at4(0, 0, 0, 0) = 3.0f;
  in.at4(0, 0, 0, 1) = 7.0f;
  Tensor gamma(Shape{1}, 2.0f);
  Tensor beta(Shape{1}, 1.0f);
  Tensor mean(Shape{1}, 5.0f);
  Tensor var(Shape{1}, 4.0f);
  ThreadPool pool(2);
  const Tensor out = batch_norm2d(pool, in, gamma, beta, mean, var, 0.0);
  // (3-5)/2 * 2 + 1 = -1; (7-5)/2 * 2 + 1 = 3.
  EXPECT_NEAR(out.at4(0, 0, 0, 0), -1.0f, 1e-5);
  EXPECT_NEAR(out.at4(0, 0, 0, 1), 3.0f, 1e-5);
}

// ---- linear / elementwise / concat ---------------------------------------------

TEST(LinearTest, HandComputed) {
  ThreadPool pool(1);
  Tensor in(Shape{1, 2});
  in.at(0) = 1.0f;
  in.at(1) = 2.0f;
  Tensor w(Shape{2, 2});
  w.at(0) = 1.0f;  // w(0,0)
  w.at(1) = 1.0f;  // w(0,1)
  w.at(2) = 3.0f;  // w(1,0)
  w.at(3) = -1.0f; // w(1,1)
  Tensor b(Shape{2});
  b.at(0) = 0.5f;
  b.at(1) = 0.0f;
  const Tensor out = linear(pool, in, w, b, LinearAttrs{2, 2, true});
  EXPECT_FLOAT_EQ(out.at(0), 3.5f);  // 1+2 + 0.5
  EXPECT_FLOAT_EQ(out.at(1), 1.0f);  // 3-2
}

TEST(AddTest, Elementwise) {
  Tensor a(Shape{3}, 1.0f);
  Tensor b(Shape{3}, 2.5f);
  const Tensor out = add(a, b);
  for (const float v : out.data()) EXPECT_FLOAT_EQ(v, 3.5f);
  EXPECT_THROW(add(a, Tensor(Shape{4})), InvalidArgument);
}

TEST(MultiplyTest, BroadcastGate) {
  Tensor x(Shape::nchw(1, 2, 2, 2), 3.0f);
  Tensor gate(Shape::nchw(1, 2, 1, 1));
  gate.at4(0, 0, 0, 0) = 0.5f;
  gate.at4(0, 1, 0, 0) = 2.0f;
  const Tensor out = multiply(x, gate);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 1.5f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 1), 6.0f);
}

TEST(MultiplyTest, RejectsNonBroadcastableShapes) {
  Tensor a(Shape::nchw(1, 2, 2, 2));
  Tensor b(Shape::nchw(1, 3, 1, 1));
  EXPECT_THROW(multiply(a, b), InvalidArgument);
}

TEST(ConcatTest, StacksChannelsInOrder) {
  Tensor a(Shape::nchw(1, 1, 2, 2), 1.0f);
  Tensor b(Shape::nchw(1, 2, 2, 2), 2.0f);
  const Tensor out = concat({a, b});
  ASSERT_EQ(out.shape(), Shape::nchw(1, 3, 2, 2));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 2, 1, 1), 2.0f);
}

TEST(FlattenTest, PreservesDataOrder) {
  Tensor in(Shape::nchw(2, 2, 1, 2));
  float v = 0.0f;
  for (float& x : in.data()) x = v++;
  const Tensor out = flatten(in);
  ASSERT_EQ(out.shape(), Shape({2, 4}));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(out.at(i), static_cast<float>(i));
}

}  // namespace
}  // namespace convmeter

namespace convmeter {
namespace {

TEST(SliceChannelsTest, KeepsRequestedRange) {
  Tensor in(Shape::nchw(1, 4, 2, 2));
  float v = 0.0f;
  for (float& x : in.data()) x = v++;
  const Tensor out = slice_channels(in, 1, 3);
  ASSERT_EQ(out.shape(), Shape::nchw(1, 2, 2, 2));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), in.at4(0, 1, 0, 0));
  EXPECT_FLOAT_EQ(out.at4(0, 1, 1, 1), in.at4(0, 2, 1, 1));
}

TEST(SliceChannelsTest, RangeChecked) {
  Tensor in(Shape::nchw(1, 4, 2, 2));
  EXPECT_THROW(slice_channels(in, 2, 5), InvalidArgument);
  EXPECT_THROW(slice_channels(in, 3, 3), InvalidArgument);
}

TEST(ChannelShuffleTest, PermutesAcrossGroups) {
  // 6 channels, 2 groups: [0 1 2 | 3 4 5] -> [0 3 1 4 2 5].
  Tensor in(Shape::nchw(1, 6, 1, 1));
  for (std::int64_t c = 0; c < 6; ++c) in.at4(0, c, 0, 0) = static_cast<float>(c);
  const Tensor out = channel_shuffle(in, 2);
  const float want[6] = {0, 3, 1, 4, 2, 5};
  for (std::int64_t c = 0; c < 6; ++c) {
    EXPECT_FLOAT_EQ(out.at4(0, c, 0, 0), want[c]);
  }
}

TEST(ChannelShuffleTest, InverseIsShuffleWithComplementGroups) {
  Tensor in(Shape::nchw(2, 12, 3, 3));
  in.fill_random(55);
  const Tensor shuffled = channel_shuffle(in, 3);
  const Tensor back = channel_shuffle(shuffled, 12 / 3);
  EXPECT_EQ(back.max_abs_diff(in), 0.0f);
}

TEST(ChannelShuffleTest, GroupsMustDivide) {
  Tensor in(Shape::nchw(1, 6, 1, 1));
  EXPECT_THROW(channel_shuffle(in, 4), InvalidArgument);
}

// ---- transformer kernels ----------------------------------------------------

TEST(ToTokensTest, GathersChannelVectorsPerPosition) {
  ThreadPool pool(2);
  const Tensor in = random_tensor(Shape::nchw(2, 3, 2, 2), 61);
  Tensor cls(Shape{3});
  cls.fill_random(62);
  for (const bool with_cls : {false, true}) {
    const Tensor out =
        to_tokens(pool, in, with_cls ? cls : Tensor(), ToTokensAttrs{with_cls});
    const std::int64_t t0 = with_cls ? 1 : 0;
    ASSERT_EQ(out.shape(), (Shape{2, 4 + t0, 3}));
    for (std::int64_t b = 0; b < 2; ++b) {
      for (std::int64_t c = 0; c < 3; ++c) {
        if (with_cls) {
          EXPECT_EQ(out.data()[(b * (4 + t0)) * 3 + c], cls.data()[c]);
        }
        for (std::int64_t h = 0; h < 2; ++h) {
          for (std::int64_t w = 0; w < 2; ++w) {
            const std::int64_t t = t0 + h * 2 + w;
            EXPECT_EQ(out.data()[(b * (4 + t0) + t) * 3 + c],
                      in.at4(b, c, h, w))
                << "b=" << b << " c=" << c << " h=" << h << " w=" << w;
          }
        }
      }
    }
  }
}

/// Double-precision layer-norm reference.
std::vector<float> naive_layer_norm(const std::vector<float>& x,
                                    const std::vector<float>& gamma,
                                    const std::vector<float>& beta,
                                    std::size_t rows, std::size_t dim,
                                    double eps) {
  std::vector<float> y(rows * dim);
  for (std::size_t r = 0; r < rows; ++r) {
    double mean = 0.0;
    for (std::size_t i = 0; i < dim; ++i) mean += x[r * dim + i];
    mean /= static_cast<double>(dim);
    double var = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = x[r * dim + i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(dim);
    const double inv = 1.0 / std::sqrt(var + eps);
    for (std::size_t i = 0; i < dim; ++i) {
      y[r * dim + i] = static_cast<float>((x[r * dim + i] - mean) * inv *
                                              gamma[i] +
                                          beta[i]);
    }
  }
  return y;
}

TEST(LayerNormTest, MatchesDoubleReferenceAcrossShapes) {
  ThreadPool pool(3);
  const struct {
    std::int64_t batch, tokens, dim;
  } shapes[] = {{1, 1, 1}, {2, 5, 8}, {1, 197, 64}, {3, 7, 33}};
  for (const auto& sh : shapes) {
    SCOPED_TRACE(::testing::Message() << "B=" << sh.batch << " T=" << sh.tokens
                                      << " D=" << sh.dim);
    const Tensor in =
        random_tensor(Shape{sh.batch, sh.tokens, sh.dim},
                      static_cast<std::uint64_t>(71 + sh.dim));
    const Tensor gamma = random_tensor(Shape{sh.dim}, 72);
    const Tensor beta = random_tensor(Shape{sh.dim}, 73);
    const Tensor out = layer_norm(pool, in, gamma, beta,
                                  LayerNormAttrs{sh.dim});
    const auto rows = static_cast<std::size_t>(sh.batch * sh.tokens);
    const std::vector<float> want = naive_layer_norm(
        {in.data().begin(), in.data().end()},
        {gamma.data().begin(), gamma.data().end()},
        {beta.data().begin(), beta.data().end()}, rows,
        static_cast<std::size_t>(sh.dim), 1e-5);
    expect_close_rel({out.data().begin(), out.data().end()}, want, 1e-4f);
  }
}

TEST(LayerNormTest, BitIdenticalAcrossThreadCounts) {
  const Tensor in = random_tensor(Shape{4, 50, 32}, 81);
  const Tensor gamma = random_tensor(Shape{32}, 82);
  const Tensor beta = random_tensor(Shape{32}, 83);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const Tensor a = layer_norm(pool1, in, gamma, beta, LayerNormAttrs{32});
  const Tensor b = layer_norm(pool4, in, gamma, beta, LayerNormAttrs{32});
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
}

/// Double-precision multi-head self-attention reference (fused PyTorch
/// MultiheadAttention parameter layout, matching the production kernel).
std::vector<float> naive_self_attention(
    const std::vector<float>& x, const std::vector<float>& wi,
    const std::vector<float>& bi, const std::vector<float>& wo,
    const std::vector<float>& bo, std::size_t B, std::size_t T, std::size_t D,
    std::size_t H) {
  const std::size_t Dh = D / H;
  const double scale = 1.0 / std::sqrt(static_cast<double>(Dh));
  std::vector<double> qkv(B * T * 3 * D);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t o = 0; o < 3 * D; ++o) {
        double acc = bi[o];
        for (std::size_t d = 0; d < D; ++d) {
          acc += static_cast<double>(x[(b * T + t) * D + d]) * wi[o * D + d];
        }
        qkv[(b * T + t) * 3 * D + o] = acc;
      }
    }
  }
  std::vector<double> ctx(B * T * D);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t h = 0; h < H; ++h) {
      for (std::size_t t = 0; t < T; ++t) {
        const double* q = &qkv[(b * T + t) * 3 * D + h * Dh];
        std::vector<double> p(T);
        double row_max = -1e300;
        for (std::size_t u = 0; u < T; ++u) {
          const double* k = &qkv[(b * T + u) * 3 * D + D + h * Dh];
          double s = 0.0;
          for (std::size_t d = 0; d < Dh; ++d) s += q[d] * k[d];
          p[u] = s * scale;
          row_max = std::max(row_max, p[u]);
        }
        double denom = 0.0;
        for (std::size_t u = 0; u < T; ++u) {
          p[u] = std::exp(p[u] - row_max);
          denom += p[u];
        }
        for (std::size_t d = 0; d < Dh; ++d) {
          double acc = 0.0;
          for (std::size_t u = 0; u < T; ++u) {
            acc += p[u] / denom *
                   qkv[(b * T + u) * 3 * D + 2 * D + h * Dh + d];
          }
          ctx[(b * T + t) * D + h * Dh + d] = acc;
        }
      }
    }
  }
  std::vector<float> y(B * T * D);
  for (std::size_t r = 0; r < B * T; ++r) {
    for (std::size_t o = 0; o < D; ++o) {
      double acc = bo[o];
      for (std::size_t d = 0; d < D; ++d) acc += ctx[r * D + d] * wo[o * D + d];
      y[r * D + o] = static_cast<float>(acc);
    }
  }
  return y;
}

TEST(SelfAttentionTest, MatchesDoubleReferenceAcrossShapes) {
  ThreadPool pool(3);
  const struct {
    std::int64_t batch, tokens, dim, heads;
  } shapes[] = {{1, 1, 2, 1}, {1, 4, 8, 2}, {2, 7, 12, 3}, {2, 17, 16, 4}};
  for (const auto& sh : shapes) {
    SCOPED_TRACE(::testing::Message() << "B=" << sh.batch << " T=" << sh.tokens
                                      << " D=" << sh.dim
                                      << " H=" << sh.heads);
    const Tensor in =
        random_tensor(Shape{sh.batch, sh.tokens, sh.dim},
                      static_cast<std::uint64_t>(90 + sh.tokens));
    const Tensor wi = random_tensor(Shape{3 * sh.dim, sh.dim}, 91);
    const Tensor bi = random_tensor(Shape{3 * sh.dim}, 92);
    const Tensor wo = random_tensor(Shape{sh.dim, sh.dim}, 93);
    const Tensor bo = random_tensor(Shape{sh.dim}, 94);
    const SelfAttentionAttrs attrs{sh.dim, sh.heads};
    const Tensor out = self_attention(pool, in, wi, bi, wo, bo, attrs);
    const std::vector<float> want = naive_self_attention(
        {in.data().begin(), in.data().end()},
        {wi.data().begin(), wi.data().end()},
        {bi.data().begin(), bi.data().end()},
        {wo.data().begin(), wo.data().end()},
        {bo.data().begin(), bo.data().end()},
        static_cast<std::size_t>(sh.batch),
        static_cast<std::size_t>(sh.tokens), static_cast<std::size_t>(sh.dim),
        static_cast<std::size_t>(sh.heads));
    expect_close_rel({out.data().begin(), out.data().end()}, want, 1e-4f);
  }
}

TEST(SelfAttentionTest, BitIdenticalAcrossThreadCounts) {
  // The (batch x head) partition uses grain 1 with fixed per-task serial
  // math, so any worker count must produce the same bits — the campaign
  // engine's determinism contract for --jobs.
  const Tensor in = random_tensor(Shape{3, 19, 24}, 95);
  const Tensor wi = random_tensor(Shape{72, 24}, 96);
  const Tensor bi = random_tensor(Shape{72}, 97);
  const Tensor wo = random_tensor(Shape{24, 24}, 98);
  const Tensor bo = random_tensor(Shape{24}, 99);
  const SelfAttentionAttrs attrs{24, 4};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const Tensor a = self_attention(pool1, in, wi, bi, wo, bo, attrs);
  const Tensor b = self_attention(pool4, in, wi, bi, wo, bo, attrs);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
}

TEST(SelectTokenTest, ExtractsRequestedRow) {
  const Tensor in = random_tensor(Shape{2, 5, 3}, 100);
  const Tensor out = select_token(in, 2);
  ASSERT_EQ(out.shape(), (Shape{2, 3}));
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t d = 0; d < 3; ++d) {
      EXPECT_EQ(out.data()[b * 3 + d], in.data()[(b * 5 + 2) * 3 + d]);
    }
  }
  EXPECT_THROW(select_token(in, 5), InvalidArgument);
}

TEST(TransposeTokensTest, SwapsLastTwoDimsAndIsInvolution) {
  ThreadPool pool(2);
  const Tensor in = random_tensor(Shape{2, 4, 6}, 101);
  const Tensor t = transpose_tokens(pool, in);
  ASSERT_EQ(t.shape(), (Shape{2, 6, 4}));
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t j = 0; j < 6; ++j) {
        EXPECT_EQ(t.data()[(b * 6 + j) * 4 + i], in.data()[(b * 4 + i) * 6 + j]);
      }
    }
  }
  const Tensor back = transpose_tokens(pool, t);
  EXPECT_EQ(back.max_abs_diff(in), 0.0f);
}

}  // namespace
}  // namespace convmeter
