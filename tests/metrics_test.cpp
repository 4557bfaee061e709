// Metric-extraction tests: hand-computed FLOP counts, the batch-linearity
// property (Eq. 3's foundation), and golden GFLOP values for zoo models.
#include <gtest/gtest.h>

#include <ostream>

#include "metrics/metrics.hpp"
#include "models/zoo.hpp"

namespace convmeter {
namespace {

Graph single_conv(Conv2dAttrs attrs) {
  Graph g("one-conv");
  NodeId x = g.input(attrs.in_channels);
  g.conv2d("c", x, attrs);
  return g;
}

TEST(MetricsTest, ConvFlopsHandComputed) {
  // 3x3 conv, 4->8 channels, 10x10 input with pad 1 -> 10x10 output.
  // FLOPs = 2 * (8*10*10) * (4*9) = 57600.
  const Graph g = single_conv(Conv2dAttrs::square(4, 8, 3, 1, 1));
  const GraphMetrics m = compute_metrics(g, Shape::nchw(1, 4, 10, 10));
  EXPECT_DOUBLE_EQ(m.flops, 57600.0);
  EXPECT_DOUBLE_EQ(m.conv_inputs, 400.0);   // 4*10*10
  EXPECT_DOUBLE_EQ(m.conv_outputs, 800.0);  // 8*10*10
  EXPECT_DOUBLE_EQ(m.weights, 288.0);       // 8*4*9
  EXPECT_DOUBLE_EQ(m.layers, 1.0);
}

TEST(MetricsTest, ConvBiasAddsOneFlopPerOutput) {
  const Graph with = single_conv(Conv2dAttrs::square(4, 8, 3, 1, 1, 1, true));
  const Graph without = single_conv(Conv2dAttrs::square(4, 8, 3, 1, 1));
  const double delta =
      compute_metrics(with, Shape::nchw(1, 4, 10, 10)).flops -
      compute_metrics(without, Shape::nchw(1, 4, 10, 10)).flops;
  EXPECT_DOUBLE_EQ(delta, 800.0);
}

TEST(MetricsTest, GroupedConvDividesWork) {
  const Graph dense = single_conv(Conv2dAttrs::square(8, 8, 3, 1, 1));
  const Graph dw = single_conv(Conv2dAttrs::square(8, 8, 3, 1, 1, 8));
  const double fd = compute_metrics(dense, Shape::nchw(1, 8, 10, 10)).flops;
  const double fg = compute_metrics(dw, Shape::nchw(1, 8, 10, 10)).flops;
  EXPECT_DOUBLE_EQ(fd, 8.0 * fg);
}

TEST(MetricsTest, LinearFlops) {
  Graph g("fc");
  NodeId x = g.input(3);
  x = g.adaptive_avg_pool("p", x, 1, 1);
  x = g.flatten("f", x);
  g.linear("fc", x, LinearAttrs{3, 10, true});
  const GraphMetrics m = compute_metrics(g, Shape::nchw(4, 3, 8, 8));
  // Linear: batch 4 * (2*3*10 + 10) = 280; adaptive pool: 4*3*64 = 768.
  EXPECT_DOUBLE_EQ(m.flops, 280.0 + 768.0);
}

TEST(MetricsTest, LayersCountsParameterizedLayersOnly) {
  Graph g("mix");
  NodeId x = g.input(3);
  x = g.conv2d("c", x, Conv2dAttrs::square(3, 8, 3, 1, 1));
  x = g.batch_norm("b", x, 8);
  x = g.activation("r", x, ActKind::kReLU);
  x = g.max_pool("p", x, Pool2dAttrs::square(2, 2));
  x = g.adaptive_avg_pool("ap", x, 1, 1);
  x = g.flatten("f", x);
  g.linear("fc", x, LinearAttrs{8, 10, true});
  const GraphMetrics m = compute_metrics(g, Shape::nchw(1, 3, 8, 8));
  EXPECT_DOUBLE_EQ(m.layers, 3.0);  // conv + bn + linear
}

/// Property (Sec. 3): inputs, outputs, and FLOPs scale linearly with the
/// batch size; weights and layers do not.
class BatchLinearity : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchLinearity, MetricsScaleWithBatch) {
  const Graph g = models::build(GetParam());
  const std::int64_t image = models::default_image_size(GetParam());
  const GraphMetrics m1 =
      compute_metrics(g, Shape::nchw(1, 3, image, image));
  const GraphMetrics m8 =
      compute_metrics(g, Shape::nchw(8, 3, image, image));
  EXPECT_NEAR(m8.flops, 8.0 * m1.flops, 1e-6 * m8.flops);
  EXPECT_NEAR(m8.conv_inputs, 8.0 * m1.conv_inputs, 1e-9);
  EXPECT_NEAR(m8.conv_outputs, 8.0 * m1.conv_outputs, 1e-9);
  EXPECT_DOUBLE_EQ(m8.weights, m1.weights);
  EXPECT_DOUBLE_EQ(m8.layers, m1.layers);
  // scaled_by_batch reproduces the direct computation (Eq. 3).
  const GraphMetrics scaled = m1.scaled_by_batch(8.0);
  EXPECT_NEAR(scaled.flops, m8.flops, 1e-6 * m8.flops);
  EXPECT_DOUBLE_EQ(scaled.conv_inputs, m8.conv_inputs);
}

INSTANTIATE_TEST_SUITE_P(
    Sample, BatchLinearity,
    ::testing::Values("alexnet", "resnet50", "mobilenet_v2", "densenet121",
                      "squeezenet1_0", "efficientnet_b0"),
    [](const auto& info) { return info.param; });

/// Published MAC counts x2 (our convention counts multiply and add
/// separately); tolerance 3% to absorb elementwise accounting differences.
struct FlopsGolden {
  const char* name;
  double gflops;
};

// Printed in the test's listed name; the default byte dump would include
// the name's pointer value, which differs from one run to the next.
void PrintTo(const FlopsGolden& g, std::ostream* os) { *os << g.name; }

class FlopsGoldenTest : public ::testing::TestWithParam<FlopsGolden> {};

TEST_P(FlopsGoldenTest, MatchesPublishedValue) {
  const GraphMetrics m = compute_metrics_b1(
      models::build(GetParam().name),
      models::default_image_size(GetParam().name));
  EXPECT_NEAR(m.flops / 1e9, GetParam().gflops, 0.03 * GetParam().gflops)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, FlopsGoldenTest,
    ::testing::Values(FlopsGolden{"alexnet", 1.43},
                      FlopsGolden{"vgg16", 31.0},
                      FlopsGolden{"resnet18", 3.64},
                      FlopsGolden{"resnet50", 8.21},
                      FlopsGolden{"densenet121", 5.72},
                      FlopsGolden{"inception_v3", 11.4},
                      FlopsGolden{"mobilenet_v2", 0.62},
                      FlopsGolden{"regnet_x_8gf", 16.0}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(MetricsTest, PerLayerWorkSumsToGraphFlops) {
  const Graph g = models::build("resnet18");
  const Shape in = Shape::nchw(1, 3, 224, 224);
  double sum = 0.0;
  for (const LayerWork& w : per_layer_work(g, in)) sum += w.flops;
  EXPECT_NEAR(sum, compute_metrics(g, in).flops, 1.0);
}

TEST(MetricsTest, PerLayerWorkParamsSumToParameterCount) {
  const Graph g = models::build("resnet50");
  const Shape in = Shape::nchw(1, 3, 224, 224);
  double params = 0.0;
  for (const LayerWork& w : per_layer_work(g, in)) params += w.param_elems;
  EXPECT_DOUBLE_EQ(params, static_cast<double>(g.parameter_count()));
}

TEST(MetricsTest, StructuralNodesHaveZeroFlops) {
  Graph g("structural");
  NodeId x = g.input(4);
  NodeId a = g.activation("a", x, ActKind::kReLU);
  NodeId b = g.activation("b", x, ActKind::kReLU);
  NodeId cat = g.concat("cat", {a, b});
  NodeId f = g.flatten("flat", cat);
  g.dropout("drop", f, 0.5);
  const auto work = per_layer_work(g, Shape::nchw(1, 4, 4, 4));
  EXPECT_EQ(work[static_cast<std::size_t>(cat)].flops, 0.0);
  EXPECT_EQ(work[static_cast<std::size_t>(f)].flops, 0.0);
  EXPECT_EQ(work[0].flops, 0.0);  // input node
}

TEST(MetricsTest, ScaledByBatchRejectsNonPositive) {
  GraphMetrics m;
  EXPECT_THROW(m.scaled_by_batch(0.0), InvalidArgument);
}

TEST(MetricsTest, InputsOnlyCountConvLayers) {
  // A pooling layer between convs must not contribute to I/O sums.
  Graph g("pool-between");
  NodeId x = g.input(4);
  x = g.conv2d("c1", x, Conv2dAttrs::square(4, 8, 3, 1, 1));
  x = g.max_pool("p", x, Pool2dAttrs::square(2, 2));
  g.conv2d("c2", x, Conv2dAttrs::square(8, 8, 3, 1, 1));
  const GraphMetrics m = compute_metrics(g, Shape::nchw(1, 4, 8, 8));
  // I = 4*64 (c1 input) + 8*16 (c2 input after pool) = 256 + 128.
  EXPECT_DOUBLE_EQ(m.conv_inputs, 384.0);
  // O = 8*64 + 8*16 = 512 + 128.
  EXPECT_DOUBLE_EQ(m.conv_outputs, 640.0);
}

}  // namespace
}  // namespace convmeter
