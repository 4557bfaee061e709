// Transformer-extension tests: new operators' shape inference, ViT metric
// goldens, serialization, and end-to-end execution through the real CPU
// backend.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "exec/executor.hpp"
#include "graph/serialize.hpp"
#include "graph/shape_inference.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"

namespace convmeter {
namespace {

Graph tiny_vit() {
  Graph g("tiny-vit");
  NodeId x = g.input(3);
  x = g.conv2d("patch", x, Conv2dAttrs::square(3, 8, 4, 4, 0, 1, true));
  x = g.to_tokens("tok", x, true);
  NodeId y = g.layer_norm("ln1", x, 8);
  y = g.self_attention("attn", y, 8, 2);
  x = g.add("res", x, y);
  x = g.layer_norm("ln2", x, 8);
  x = g.select_token("cls", x, 0);
  g.linear("head", x, LinearAttrs{8, 10, true});
  return g;
}

TEST(TransformerShapeTest, ToTokensProducesSequence) {
  const Graph g = tiny_vit();
  const ShapeMap shapes = infer_shapes(g, Shape::nchw(2, 3, 16, 16));
  // 16/4 = 4x4 = 16 patches + cls token.
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.find("tok"))],
            Shape({2, 17, 8}));
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.find("attn"))],
            Shape({2, 17, 8}));
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.find("cls"))], Shape({2, 8}));
  EXPECT_EQ(shapes.back(), Shape({2, 10}));
}

TEST(TransformerShapeTest, NoClsTokenVariant) {
  Graph g("no-cls");
  NodeId x = g.input(3);
  x = g.conv2d("patch", x, Conv2dAttrs::square(3, 8, 4, 4));
  g.to_tokens("tok", x, false);
  const ShapeMap shapes = infer_shapes(g, Shape::nchw(1, 3, 16, 16));
  EXPECT_EQ(shapes.back(), Shape({1, 16, 8}));
}

TEST(TransformerShapeTest, LayerNormDimChecked) {
  Graph g("ln-bad");
  NodeId x = g.input(3);
  x = g.conv2d("patch", x, Conv2dAttrs::square(3, 8, 4, 4));
  x = g.to_tokens("tok", x, true);
  g.layer_norm("ln", x, 16);  // dim is 8, not 16
  EXPECT_THROW(infer_shapes(g, Shape::nchw(1, 3, 16, 16)), InvalidArgument);
}

TEST(TransformerShapeTest, AttentionHeadsMustDivideDim) {
  Graph g("attn-bad");
  NodeId x = g.input(3);
  x = g.conv2d("patch", x, Conv2dAttrs::square(3, 8, 4, 4));
  x = g.to_tokens("tok", x, true);
  EXPECT_THROW(g.self_attention("attn", x, 8, 3), InvalidArgument);
}

TEST(TransformerShapeTest, Rank3LinearAppliesPerToken) {
  Graph g("mlp");
  NodeId x = g.input(3);
  x = g.conv2d("patch", x, Conv2dAttrs::square(3, 8, 4, 4));
  x = g.to_tokens("tok", x, true);
  g.linear("fc", x, LinearAttrs{8, 32, true});
  const ShapeMap shapes = infer_shapes(g, Shape::nchw(2, 3, 16, 16));
  EXPECT_EQ(shapes.back(), Shape({2, 17, 32}));
}

TEST(TransformerMetricsTest, AttentionParameterCount) {
  // in_proj: 3*8*8 + 3*8 = 216; out_proj: 8*8 + 8 = 72.
  EXPECT_EQ((SelfAttentionAttrs{8, 2}.parameter_count()), 288);
}

TEST(TransformerMetricsTest, Rank3LinearFlopsCountTokens) {
  Graph g("mlp");
  NodeId x = g.input(3);
  x = g.conv2d("patch", x, Conv2dAttrs::square(3, 8, 4, 4));
  x = g.to_tokens("tok", x, false);  // 16 tokens
  g.linear("fc", x, LinearAttrs{8, 32, false});
  const auto work = per_layer_work(g, Shape::nchw(2, 3, 16, 16));
  // rows = 2*16 = 32, flops = 32 * 2*8*32 = 16384.
  EXPECT_DOUBLE_EQ(work.back().flops, 16384.0);
}

struct VitGolden {
  const char* name;
  double params_m;  ///< millions (pos-embed excluded, hence tolerance)
  double gflops;    ///< 2 x published GMACs @224
};

// Printed in the test's listed name; the default byte dump would include
// the name's pointer value, which differs from one run to the next.
void PrintTo(const VitGolden& v, std::ostream* os) { *os << v.name; }

class VitGoldenTest : public ::testing::TestWithParam<VitGolden> {};

TEST_P(VitGoldenTest, MatchesPublishedScale) {
  const Graph g = models::build(GetParam().name);
  EXPECT_NEAR(g.parameter_count() / 1e6, GetParam().params_m,
              0.02 * GetParam().params_m);
  const GraphMetrics m = compute_metrics_b1(g, 224);
  EXPECT_NEAR(m.flops / 1e9, GetParam().gflops, 0.05 * GetParam().gflops);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, VitGoldenTest,
    ::testing::Values(VitGolden{"vit_b_16", 86.4, 35.2},
                      VitGolden{"vit_l_16", 304.1, 123.3},
                      VitGolden{"vit_s_16", 22.0, 9.2}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(TransformerMetricsTest, ConvIoNearZeroButComputeIoLarge) {
  const GraphMetrics m = compute_metrics_b1(models::build("vit_b_16"), 224);
  // Only the patch embed is a conv: its I/O is a sliver of the compute I/O.
  EXPECT_LT(m.conv_inputs + m.conv_outputs,
            0.05 * (m.compute_inputs + m.compute_outputs));
}

TEST(TransformerMetricsTest, ComputeIoCoversConvNetsToo) {
  const GraphMetrics m = compute_metrics_b1(models::build("resnet18"), 224);
  // For a ConvNet the generalized I/O must at least include the conv I/O.
  EXPECT_GE(m.compute_inputs, m.conv_inputs);
  EXPECT_GE(m.compute_outputs, m.conv_outputs);
}

TEST(TransformerSerializeTest, VitRoundTrips) {
  const Graph g = models::build("vit_ti_16");
  const Graph back = graph_from_text(graph_to_text(g));
  EXPECT_EQ(back.size(), g.size());
  EXPECT_EQ(back.parameter_count(), g.parameter_count());
  EXPECT_EQ(graph_to_text(back), graph_to_text(g));
}

TEST(TransformerExecutorTest, VitGraphExecutesEndToEnd) {
  Executor exec(2);
  const ExecutionResult r =
      exec.run_random(tiny_vit(), Shape::nchw(2, 3, 16, 16));
  EXPECT_EQ(r.output.shape(), Shape({2, 10}));
  for (const float v : r.output.data()) EXPECT_TRUE(std::isfinite(v));
  // Every layer must have been timed, attention and norms included.
  EXPECT_EQ(r.layers.size(), tiny_vit().size());
}

TEST(TransformerExecutorTest, ExecutionIsThreadCountInvariant) {
  const Graph g = tiny_vit();
  Executor serial(1);
  Executor threaded(4);
  const Tensor out1 = serial.run_random(g, Shape::nchw(2, 3, 16, 16)).output;
  const Tensor out4 =
      threaded.run_random(g, Shape::nchw(2, 3, 16, 16)).output;
  ASSERT_EQ(out1.shape(), out4.shape());
  for (std::size_t i = 0; i < out1.data().size(); ++i) {
    EXPECT_EQ(out1.data()[i], out4.data()[i]) << "element " << i;
  }
}

TEST(TransformerMetricsTest, VitBatchLinearity) {
  const Graph g = models::build("vit_ti_16");
  const GraphMetrics m1 = compute_metrics(g, Shape::nchw(1, 3, 224, 224));
  const GraphMetrics m4 = compute_metrics(g, Shape::nchw(4, 3, 224, 224));
  EXPECT_NEAR(m4.flops, 4.0 * m1.flops, 1e-6 * m4.flops);
  EXPECT_NEAR(m4.compute_inputs, 4.0 * m1.compute_inputs, 1e-9);
}

}  // namespace
}  // namespace convmeter
