// Model zoo tests: every model validates, produces (N, 1000) logits at its
// default resolution, and the flagship architectures match the published
// torchvision parameter counts exactly.
#include <gtest/gtest.h>

#include <ostream>

#include "graph/shape_inference.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"

namespace convmeter {
namespace {

class ZooModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooModelTest, ValidatesAndClassifies1000Classes) {
  const Graph g = models::build(GetParam());
  EXPECT_NO_THROW(g.validate());
  const std::int64_t image = models::default_image_size(GetParam());
  const ShapeMap shapes = infer_shapes(g, Shape::nchw(2, 3, image, image));
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.output_id())],
            Shape({2, 1000}));
}

TEST_P(ZooModelTest, HasPositiveMetrics) {
  const Graph g = models::build(GetParam());
  const GraphMetrics m =
      compute_metrics_b1(g, models::default_image_size(GetParam()));
  EXPECT_GT(m.flops, 0.0);
  EXPECT_GT(m.conv_inputs, 0.0);
  EXPECT_GT(m.conv_outputs, 0.0);
  EXPECT_GT(m.weights, 0.0);
  EXPECT_GT(m.layers, 0.0);
}

TEST_P(ZooModelTest, NameMatchesRegistry) {
  EXPECT_EQ(models::build(GetParam()).name(), GetParam());
  EXPECT_TRUE(models::is_available(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooModelTest,
                         ::testing::ValuesIn(models::available_models()),
                         [](const auto& info) { return info.param; });

/// Published torchvision parameter counts (exact).
struct ParamGolden {
  const char* name;
  std::int64_t params;
};

// Printed in the test's listed name; the default byte dump would include
// the name's pointer value, which differs from one run to the next.
void PrintTo(const ParamGolden& g, std::ostream* os) { *os << g.name; }

class ParamCountTest : public ::testing::TestWithParam<ParamGolden> {};

TEST_P(ParamCountTest, MatchesTorchvision) {
  const Graph g = models::build(GetParam().name);
  EXPECT_EQ(g.parameter_count(), GetParam().params) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, ParamCountTest,
    ::testing::Values(ParamGolden{"alexnet", 61100840},
                      ParamGolden{"vgg11", 132863336},
                      ParamGolden{"vgg16", 138357544},
                      ParamGolden{"vgg19", 143667240},
                      ParamGolden{"resnet18", 11689512},
                      ParamGolden{"resnet34", 21797672},
                      ParamGolden{"resnet50", 25557032},
                      ParamGolden{"resnet101", 44549160},
                      ParamGolden{"resnet152", 60192808},
                      ParamGolden{"wide_resnet50_2", 68883240},
                      ParamGolden{"resnext50_32x4d", 25028904},
                      ParamGolden{"squeezenet1_0", 1248424},
                      ParamGolden{"squeezenet1_1", 1235496},
                      ParamGolden{"densenet121", 7978856},
                      ParamGolden{"googlenet", 6624904},
                      ParamGolden{"shufflenet_v2_x1_0", 2278604},
                      ParamGolden{"shufflenet_v2_x0_5", 1366792},
                      ParamGolden{"mobilenet_v2", 3504872},
                      ParamGolden{"mobilenet_v3_large", 5483032},
                      ParamGolden{"mobilenet_v3_small", 2542856},
                      ParamGolden{"efficientnet_b0", 5288548}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ZooTest, UnknownModelThrows) {
  EXPECT_THROW(models::build("resnet9000"), InvalidArgument);
  EXPECT_THROW(models::default_image_size("nope"), InvalidArgument);
  EXPECT_FALSE(models::is_available("nope"));
}

TEST(ZooTest, RegistryHas37Models) {
  EXPECT_EQ(models::available_models().size(), 37u);
}

TEST(ZooTest, MixerGraphsValidateAndClassify) {
  for (const char* name : {"mlp_mixer_s_16", "mlp_mixer_b_16"}) {
    const Graph g = models::build(name);
    const ShapeMap shapes = infer_shapes(g, Shape::nchw(2, 3, 224, 224));
    EXPECT_EQ(shapes.back(), Shape({2, 1000})) << name;
  }
}

TEST(ZooTest, MixerResolutionVariantsUseTheirOwnTokenWidths) {
  for (const char* name : {"mlp_mixer_s_16_160", "mlp_mixer_b_16_160"}) {
    EXPECT_EQ(models::default_image_size(name), 160) << name;
    const Graph g = models::build(name);
    // 160/16 = 10 patches per side -> 100 tokens in the token-mixing MLP.
    const Node& fc1 = g.node(g.find("mixer.0.token.fc1"));
    EXPECT_EQ(fc1.as<LinearAttrs>().in_features, 100) << name;
    const ShapeMap shapes = infer_shapes(g, Shape::nchw(2, 3, 160, 160));
    EXPECT_EQ(shapes.back(), Shape({2, 1000})) << name;
  }
}

TEST(ZooTest, InceptionNeeds299) {
  EXPECT_EQ(models::default_image_size("inception_v3"), 299);
}

TEST(ZooTest, ResNextUsesGroupedConvs) {
  const Graph g = models::build("resnext50_32x4d");
  const Node& conv = g.node(g.find("layer1.0.conv2"));
  EXPECT_EQ(conv.as<Conv2dAttrs>().groups, 32);
}

TEST(ZooTest, WideResNetDoublesBottleneckWidth) {
  const Graph plain = models::build("resnet50");
  const Graph wide = models::build("wide_resnet50_2");
  const auto width = [](const Graph& g) {
    return g.node(g.find("layer1.0.conv1")).as<Conv2dAttrs>().out_channels;
  };
  EXPECT_EQ(width(wide), 2 * width(plain));
}

TEST(ZooTest, MobileNetV2UsesDepthwiseConvs) {
  const Graph g = models::build("mobilenet_v2");
  const Node& dw = g.node(g.find("features.2.dw"));
  const auto& a = dw.as<Conv2dAttrs>();
  EXPECT_EQ(a.groups, a.in_channels);
}

TEST(ZooTest, DenseNetGrowsInputsNotOutputs) {
  // The paper's Fig. 2 discussion: DenseNet's conv inputs grow along the
  // blocks while conv outputs stay bounded -> I must clearly exceed O.
  const GraphMetrics m = compute_metrics_b1(models::build("densenet121"), 224);
  EXPECT_GT(m.conv_inputs, 1.5 * m.conv_outputs);
}

TEST(ZooTest, EfficientNetScalesDepthAcrossVariants) {
  const Graph b0 = models::build("efficientnet_b0");
  const Graph b1 = models::build("efficientnet_b1");
  EXPECT_GT(b1.size(), b0.size());
}

TEST(ZooTest, VggDepthOrdering) {
  EXPECT_LT(models::build("vgg11").count_kind(OpKind::kConv2d),
            models::build("vgg19").count_kind(OpKind::kConv2d));
  EXPECT_EQ(models::build("vgg16").count_kind(OpKind::kConv2d), 13u);
}

TEST(ZooTest, SqueezeNetHasNoLinearLayer) {
  // SqueezeNet classifies with a 1x1 conv instead of a fully connected
  // layer — that is its parameter-count trick.
  EXPECT_EQ(models::build("squeezenet1_0").count_kind(OpKind::kLinear), 0u);
}

TEST(ZooTest, FlopsOrderingMatchesComplexity) {
  const auto flops = [](const char* name) {
    return compute_metrics_b1(models::build(name), 224).flops;
  };
  EXPECT_LT(flops("mobilenet_v2"), flops("resnet18"));
  EXPECT_LT(flops("resnet18"), flops("resnet50"));
  EXPECT_LT(flops("resnet50"), flops("vgg16"));
  EXPECT_LT(flops("alexnet"), flops("resnet18"));
}

}  // namespace
}  // namespace convmeter
