// Executor tests: real forward passes over zoo models at small resolutions,
// determinism, timing bookkeeping, agreement between the executed output
// shape and shape inference, and the counter-based weight generator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "exec/executor.hpp"
#include "graph/shape_inference.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"

namespace convmeter {
namespace {

TEST(ExecutorTest, RunsTinyGraph) {
  Graph g("tiny");
  NodeId x = g.input(3);
  x = g.conv2d("c", x, Conv2dAttrs::square(3, 4, 3, 1, 1));
  x = g.activation("r", x, ActKind::kReLU);
  x = g.adaptive_avg_pool("p", x, 1, 1);
  x = g.flatten("f", x);
  g.linear("fc", x, LinearAttrs{4, 10, true});

  Executor exec(1);
  const ExecutionResult res = exec.run_random(g, Shape::nchw(2, 3, 8, 8));
  EXPECT_EQ(res.output.shape(), Shape({2, 10}));
  EXPECT_GT(res.total_seconds, 0.0);
  EXPECT_EQ(res.layers.size(), g.size());
}

TEST(ExecutorTest, DeterministicAcrossRuns) {
  const Graph g = models::build("squeezenet1_1");
  Executor exec(1);
  const ExecutionResult a = exec.run_random(g, Shape::nchw(1, 3, 64, 64), 7);
  const ExecutionResult b = exec.run_random(g, Shape::nchw(1, 3, 64, 64), 7);
  EXPECT_EQ(a.output.max_abs_diff(b.output), 0.0f);
}

TEST(ExecutorTest, DifferentSeedsChangeOutput) {
  const Graph g = models::build("squeezenet1_1");
  Executor exec(1);
  const ExecutionResult a = exec.run_random(g, Shape::nchw(1, 3, 64, 64), 7);
  const ExecutionResult b = exec.run_random(g, Shape::nchw(1, 3, 64, 64), 8);
  EXPECT_GT(a.output.max_abs_diff(b.output), 0.0f);
}

TEST(ExecutorTest, OutputsAreFinite) {
  const Graph g = models::build("mobilenet_v3_small");
  Executor exec(1);
  const ExecutionResult res = exec.run_random(g, Shape::nchw(1, 3, 64, 64));
  for (const float v : res.output.data()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(ExecutorTest, LayerTimesSumBelowTotal) {
  const Graph g = models::build("squeezenet1_1");
  Executor exec(1);
  const ExecutionResult res = exec.run_random(g, Shape::nchw(1, 3, 64, 64));
  double sum = 0.0;
  for (const LayerTiming& t : res.layers) {
    EXPECT_GE(t.seconds, 0.0);
    sum += t.seconds;
  }
  EXPECT_LE(sum, res.total_seconds * 1.5 + 1e-3);
}

/// Parameterized: a slice of the zoo runs end to end at a small resolution
/// and produces logits of the right shape.
class ExecutorZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecutorZooTest, ForwardPassShapeMatchesInference) {
  const Graph g = models::build(GetParam());
  const std::int64_t image = GetParam() == "inception_v3" ? 96 : 64;
  const Shape in = Shape::nchw(1, 3, image, image);
  const ShapeMap shapes = infer_shapes(g, in);
  Executor exec(0);
  const ExecutionResult res = exec.run_random(g, in);
  EXPECT_EQ(res.output.shape(),
            shapes[static_cast<std::size_t>(g.output_id())]);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ExecutorZooTest,
                         ::testing::Values("resnet18", "squeezenet1_0",
                                           "mobilenet_v2",
                                           "mobilenet_v3_small",
                                           "efficientnet_b0",
                                           "regnet_x_400mf"),
                         [](const auto& info) { return info.param; });

TEST(ExecutorTest, ConvTimeGrowsWithWork) {
  // A real-measurement sanity check feeding the simulator's design: more
  // FLOPs take longer. Use a 16x work ratio so scheduling noise cannot
  // invert the ordering.
  Graph small("small");
  NodeId s = small.input(8);
  small.conv2d("c", s, Conv2dAttrs::square(8, 8, 3, 1, 1));
  Graph big("big");
  NodeId b = big.input(8);
  big.conv2d("c", b, Conv2dAttrs::square(8, 128, 3, 1, 1));

  Executor exec(1);
  // Warm up allocators.
  exec.run_random(small, Shape::nchw(1, 8, 64, 64));
  double t_small = 0.0;
  double t_big = 0.0;
  for (int i = 0; i < 3; ++i) {
    t_small += exec.run_random(small, Shape::nchw(1, 8, 64, 64)).total_seconds;
    t_big += exec.run_random(big, Shape::nchw(1, 8, 64, 64)).total_seconds;
  }
  EXPECT_GT(t_big, t_small);
}

// --- Weight generator -----------------------------------------------------

/// Bit pattern of a float, so comparisons distinguish -0 from +0 and NaNs.
std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_bit_equal(const Tensor& a, const Tensor& b, std::size_t n) {
  ASSERT_GE(a.data().size(), n);
  ASSERT_GE(b.data().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits_of(a.data()[i]), bits_of(b.data()[i])) << "element " << i;
  }
}

/// Independent statement of the documented formula: element i is
/// scale * u(mix64(mix64(seed) + phi * (i + 1))), u = (top24 - 2^23) / 2^23.
float reference_weight(std::uint64_t seed, std::uint64_t i, float scale) {
  const auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const std::uint64_t phi = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t bits = mix(mix(seed) + phi * (i + 1));
  const double u =
      static_cast<double>(static_cast<std::int64_t>(bits >> 40) - (1 << 23)) /
      8388608.0;
  return scale * static_cast<float>(u);
}

TEST(WeightGeneratorTest, MatchesDocumentedFormula) {
  ThreadPool pool(3);
  const float scale = 0.125f / 3.0f;
  const Tensor w =
      make_weight(pool, Shape{3 * kWeightGrain + 5}, 0xdeadbeef, scale);
  for (std::size_t i = 0; i < w.data().size(); i += 997) {
    ASSERT_EQ(bits_of(w.data()[i]),
              bits_of(reference_weight(0xdeadbeef, i, scale)))
        << "element " << i;
  }
}

TEST(WeightGeneratorTest, BitEqualAtAnyThreadCount) {
  // Sizes straddle the inline/parallel boundary; the largest is resnet18's
  // biggest conv weight, 512x512x3x3 (2.36 M floats, 9.4 MB).
  const std::vector<Shape> shapes = {
      Shape{1}, Shape{static_cast<std::int64_t>(kWeightGrain - 1)},
      Shape{static_cast<std::int64_t>(kWeightGrain + 1)},
      Shape({512, 512, 3, 3})};
  ThreadPool serial(1);
  for (const Shape& shape : shapes) {
    const Tensor ref = make_weight(serial, shape, 42, 0.02f);
    for (const std::size_t threads : {2u, 3u, 4u}) {
      ThreadPool pool(threads);
      SCOPED_TRACE(shape.to_string() + " threads=" + std::to_string(threads));
      const Tensor w = make_weight(pool, shape, 42, 0.02f);
      ASSERT_EQ(w.shape(), shape);
      expect_bit_equal(ref, w, ref.data().size());
    }
  }
}

TEST(WeightGeneratorTest, ElementDoesNotDependOnLength) {
  ThreadPool pool(4);
  const Tensor longest =
      make_weight(pool, Shape{static_cast<std::int64_t>(4 * kWeightGrain + 3)},
                  9, 1.0f);
  for (const std::size_t n : {std::size_t{1}, std::size_t{100},
                              kWeightGrain + 1, 2 * kWeightGrain + 7}) {
    const Tensor prefix =
        make_weight(pool, Shape{static_cast<std::int64_t>(n)}, 9, 1.0f);
    expect_bit_equal(longest, prefix, n);
  }
}

TEST(WeightGeneratorTest, ValuesStayInHalfOpenRange) {
  ThreadPool pool(4);
  for (const float scale : {1.0f, 0.5f, 1.0f / std::sqrt(4608.0f)}) {
    const Tensor w = make_weight(pool, Shape{1 << 18}, 3, scale);
    for (const float v : w.data()) {
      ASSERT_GE(v, -scale);
      ASSERT_LT(v, scale);
    }
  }
}

TEST(WeightGeneratorTest, MeanAndVarianceMatchUniform) {
  ThreadPool pool(4);
  const float scale = 0.25f;
  const Tensor w = make_weight(pool, Shape{1 << 21}, 1234, scale);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const float v : w.data()) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(w.data().size());
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  const double s2 = static_cast<double>(scale) * scale;
  // U(-s, s): mean 0, variance s^2/3. Standard errors at n = 2^21 are
  // 4e-4·s and 2e-4·s^2; the tolerances sit at about ten of them.
  EXPECT_NEAR(mean, 0.0, 4e-3 * scale);
  EXPECT_NEAR(var, s2 / 3.0, 2e-3 * s2);
}

TEST(WeightGeneratorTest, DifferentSeedsDiffer) {
  ThreadPool pool(2);
  const Tensor a = make_weight(pool, Shape{4096}, 100, 1.0f);
  const Tensor b = make_weight(pool, Shape{4096}, 101, 1.0f);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    equal += a.data()[i] == b.data()[i] ? 1 : 0;
  }
  // Independent 24-bit draws collide with probability 2^-24 per element.
  EXPECT_LE(equal, 2u);
}

TEST(WeightGeneratorTest, NodeSeedDerivation) {
  EXPECT_EQ(node_weight_seed(0, 0), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(node_weight_seed(0xc0ffee, 4),
            0xc0ffeeULL ^ (0x9e3779b97f4a7c15ULL * 5));
}

TEST(ExecutorTest, VitForwardBitEqualAcrossThreadCounts) {
  // vit_s_16's linear and attention weights (up to 384x1536) are many
  // grains long, so this runs the parallel generation path end to end.
  const Graph g = models::build("vit_s_16");
  const Shape in = Shape::nchw(1, 3, 32, 32);
  Executor serial(1);
  Executor threaded(4);
  const Tensor a = serial.run_random(g, in, 5).output;
  const Tensor b = threaded.run_random(g, in, 5).output;
  ASSERT_EQ(a.shape(), b.shape());
  expect_bit_equal(a, b, a.data().size());
}

}  // namespace
}  // namespace convmeter
