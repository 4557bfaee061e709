// ConvMeter model tests: feature builders, fitting on planted linear data,
// prediction APIs, epoch math, and coefficient serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/convmeter.hpp"
#include "core/features.hpp"

namespace convmeter {
namespace {

/// Synthetic sample with planted phase times following the paper's exact
/// functional forms, so fits recover them perfectly.
RuntimeSample planted_sample(double flops1, double inputs1, double outputs1,
                             double weights, double layers, double batch,
                             int devices, int nodes) {
  RuntimeSample s;
  s.model = "planted";
  s.device = "synthetic";
  s.image_size = 64;
  s.global_batch = static_cast<std::int64_t>(batch * devices);
  s.num_devices = devices;
  s.num_nodes = nodes;
  s.flops1 = flops1;
  s.inputs1 = inputs1;
  s.outputs1 = outputs1;
  s.weights = weights;
  s.layers = layers;
  const double b = batch;
  s.t_fwd = b * (1e-12 * flops1 + 2e-9 * inputs1 + 3e-9 * outputs1) + 1e-4;
  s.t_bwd = 2.0 * s.t_fwd;
  s.t_grad = 1e-5 * layers + (devices > 1 ? 1e-10 * weights + 5e-5 * devices : 0.0);
  s.t_infer = s.t_fwd;
  s.t_step = s.t_fwd + s.t_bwd + s.t_grad;
  return s;
}

std::vector<RuntimeSample> planted_set(bool multi_device) {
  std::vector<RuntimeSample> samples;
  int model_id = 0;
  for (const double f : {1e9, 4e9, 16e9}) {
    for (const double batch : {1.0, 8.0, 64.0}) {
      // The multi-device set keeps every sample at N > 1 so the planted
      // law stays exactly inside the 7-coefficient linear model class.
      for (const int devices : multi_device ? std::vector<int>{4, 8, 16}
                                            : std::vector<int>{1}) {
        RuntimeSample s = planted_sample(f, f / 500.0, f / 400.0, f / 100.0,
                                         50.0 + f / 1e9, batch, devices,
                                         devices > 4 ? devices / 4 : 1);
        s.model = "m" + std::to_string(model_id % 4);
        samples.push_back(s);
        ++model_id;
      }
    }
  }
  return samples;
}

// ---- feature builders ------------------------------------------------------------

TEST(FeaturesTest, ForwardFeaturesFactorOutMiniBatch) {
  RuntimeSample s = planted_sample(1e9, 2e6, 3e6, 1e7, 100, 16, 4, 1);
  const Vector f = forward_features(s, FeatureSet::kCombined);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f[0], 16.0 * 1e9);  // b = 64/4 = 16
  EXPECT_DOUBLE_EQ(f[1], 16.0 * 2e6);
  EXPECT_DOUBLE_EQ(f[2], 16.0 * 3e6);
  EXPECT_DOUBLE_EQ(f[3], 1.0);
}

TEST(FeaturesTest, SingleMetricFeatureSets) {
  RuntimeSample s = planted_sample(1e9, 2e6, 3e6, 1e7, 100, 8, 1, 1);
  EXPECT_EQ(forward_features(s, FeatureSet::kFlopsOnly).size(), 2u);
  EXPECT_DOUBLE_EQ(forward_features(s, FeatureSet::kFlopsOnly)[0], 8e9);
  EXPECT_DOUBLE_EQ(forward_features(s, FeatureSet::kInputsOnly)[0], 1.6e7);
  EXPECT_DOUBLE_EQ(forward_features(s, FeatureSet::kOutputsOnly)[0], 2.4e7);
}

TEST(FeaturesTest, GradFeaturesSingleVsMulti) {
  RuntimeSample s = planted_sample(1e9, 2e6, 3e6, 1e7, 100, 8, 8, 2);
  EXPECT_EQ(grad_features(s, false), Vector{100.0});
  const Vector multi = grad_features(s, true);
  ASSERT_EQ(multi.size(), 3u);
  EXPECT_DOUBLE_EQ(multi[1], 1e7);
  EXPECT_DOUBLE_EQ(multi[2], 8.0);
}

TEST(FeaturesTest, BwdGradFeaturesHaveSevenCoefficients) {
  RuntimeSample s = planted_sample(1e9, 2e6, 3e6, 1e7, 100, 8, 8, 2);
  EXPECT_EQ(bwd_grad_features(s).size(), 7u);
}

TEST(FeaturesTest, TargetValueSelectsPhase) {
  RuntimeSample s = planted_sample(1e9, 2e6, 3e6, 1e7, 100, 8, 1, 1);
  EXPECT_DOUBLE_EQ(target_value(s, Phase::kForward), s.t_fwd);
  EXPECT_DOUBLE_EQ(target_value(s, Phase::kBwdGrad), s.t_bwd + s.t_grad);
  EXPECT_DOUBLE_EQ(target_value(s, Phase::kTrainStep), s.t_step);
}

TEST(FeaturesTest, NamesAreStable) {
  EXPECT_EQ(feature_set_name(FeatureSet::kCombined), "combined");
  EXPECT_EQ(phase_name(Phase::kBwdGrad), "bwd_grad");
}

// ---- ConvMeter fitting --------------------------------------------------------------

TEST(ConvMeterTest, RecoversPlantedInferenceModel) {
  const ConvMeter m = ConvMeter::fit_inference(planted_set(false));
  QueryPoint q;
  q.metrics_b1.flops = 8e9;
  q.metrics_b1.conv_inputs = 8e9 / 500.0;
  q.metrics_b1.conv_outputs = 8e9 / 400.0;
  q.per_device_batch = 32.0;
  const double expected =
      32.0 * (1e-12 * 8e9 + 2e-9 * q.metrics_b1.conv_inputs +
              3e-9 * q.metrics_b1.conv_outputs) +
      1e-4;
  EXPECT_NEAR(m.predict_inference(q), expected, 1e-9 + 1e-6 * expected);
}

TEST(ConvMeterTest, RecoversPlantedTrainingModel) {
  const ConvMeter m = ConvMeter::fit_training(planted_set(true));
  EXPECT_TRUE(m.has_training_model());
  EXPECT_TRUE(m.multi_node());

  QueryPoint q;
  q.metrics_b1.flops = 4e9;
  q.metrics_b1.conv_inputs = 4e9 / 500.0;
  q.metrics_b1.conv_outputs = 4e9 / 400.0;
  q.metrics_b1.weights = 4e9 / 100.0;
  q.metrics_b1.layers = 54.0;
  q.per_device_batch = 16.0;
  q.num_devices = 16;
  q.num_nodes = 4;

  const RuntimeSample truth = [&] {
    RuntimeSample s = planted_sample(4e9, 4e9 / 500.0, 4e9 / 400.0,
                                     4e9 / 100.0, 54.0, 16.0, 16, 4);
    return s;
  }();
  const TrainPrediction p = m.predict_train_step(q);
  EXPECT_NEAR(p.fwd, truth.t_fwd, 1e-6 * truth.t_fwd + 1e-9);
  EXPECT_NEAR(p.step, truth.t_step, 1e-4 * truth.t_step + 1e-8);
}

TEST(ConvMeterTest, SingleNodeFitUsesLayerOnlyGradModel) {
  const ConvMeter m = ConvMeter::fit_training(planted_set(false));
  EXPECT_FALSE(m.multi_node());
  QueryPoint q;
  q.metrics_b1.flops = 1e9;
  q.metrics_b1.conv_inputs = 2e6;
  q.metrics_b1.conv_outputs = 2.5e6;
  q.metrics_b1.weights = 1e7;
  q.metrics_b1.layers = 51.0;
  q.per_device_batch = 8.0;
  const TrainPrediction p = m.predict_train_step(q);
  EXPECT_NEAR(p.grad, 1e-5 * 51.0, 1e-7);
}

TEST(ConvMeterTest, EpochTimeMatchesStepMath) {
  const ConvMeter m = ConvMeter::fit_training(planted_set(true));
  QueryPoint q;
  q.metrics_b1.flops = 4e9;
  q.metrics_b1.conv_inputs = 8e6;
  q.metrics_b1.conv_outputs = 1e7;
  q.metrics_b1.weights = 4e7;
  q.metrics_b1.layers = 54.0;
  q.per_device_batch = 32.0;
  q.num_devices = 8;
  q.num_nodes = 2;
  const double step = m.predict_train_step(q).step;
  // D / (b*N) steps per epoch (Sec. 2).
  EXPECT_NEAR(m.predict_epoch_seconds(q, 1.28e6),
              1.28e6 / (32.0 * 8.0) * step, 1e-9);
  EXPECT_NEAR(m.predict_throughput(q), 32.0 * 8.0 / step, 1e-9);
}

TEST(ConvMeterTest, InferenceOnlyModelRejectsTrainingQueries) {
  const ConvMeter m = ConvMeter::fit_inference(planted_set(false));
  QueryPoint q;
  q.metrics_b1.flops = 1e9;
  q.per_device_batch = 1.0;
  EXPECT_THROW(m.predict_train_step(q), InvalidArgument);
  EXPECT_FALSE(m.has_training_model());
}

TEST(ConvMeterTest, QueryValidation) {
  const ConvMeter m = ConvMeter::fit_inference(planted_set(false));
  QueryPoint q;
  q.per_device_batch = 0.0;
  EXPECT_THROW(m.predict_inference(q), InvalidArgument);
  q.per_device_batch = 1.0;
  q.num_devices = 0;
  EXPECT_THROW(m.predict_inference(q), InvalidArgument);
}

TEST(ConvMeterTest, JsonRoundTripInference) {
  // Through the full text round trip — dump writes shortest-round-trip
  // doubles, so the reloaded model predicts bit-identically.
  const ConvMeter m = ConvMeter::fit_inference(planted_set(false));
  const ConvMeter back =
      ConvMeter::from_json(json::parse(json::dump(m.to_json())));
  EXPECT_EQ(back.feature_set(), m.feature_set());
  QueryPoint q;
  q.metrics_b1.flops = 2e9;
  q.metrics_b1.conv_inputs = 4e6;
  q.metrics_b1.conv_outputs = 5e6;
  q.per_device_batch = 4.0;
  EXPECT_DOUBLE_EQ(m.predict_inference(q), back.predict_inference(q));
  EXPECT_DOUBLE_EQ(m.forward_relative_sigma(), back.forward_relative_sigma());
}

TEST(ConvMeterTest, JsonRoundTripTraining) {
  const ConvMeter m = ConvMeter::fit_training(planted_set(true));
  const ConvMeter back =
      ConvMeter::from_json(json::parse(json::dump(m.to_json())));
  EXPECT_TRUE(back.has_training_model());
  EXPECT_EQ(back.multi_node(), m.multi_node());
  QueryPoint q;
  q.metrics_b1.flops = 2e9;
  q.metrics_b1.conv_inputs = 4e6;
  q.metrics_b1.conv_outputs = 5e6;
  q.metrics_b1.weights = 2e7;
  q.metrics_b1.layers = 52.0;
  q.per_device_batch = 4.0;
  q.num_devices = 4;
  EXPECT_DOUBLE_EQ(m.predict_train_step(q).step,
                   back.predict_train_step(q).step);
}

TEST(ConvMeterTest, MalformedJsonRejected) {
  // Not an object.
  EXPECT_THROW(ConvMeter::from_json(json::parse("[]")), ParseError);
  // No forward coefficient block.
  EXPECT_THROW(ConvMeter::from_json(json::parse(
                   R"({"feature_set": "combined", "multi_node": false,
                       "fwd_rel_sigma": 0.0, "models": {}})")),
               ParseError);
  // Unknown coefficient block tag.
  EXPECT_THROW(ConvMeter::from_json(json::parse(
                   R"({"feature_set": "combined", "multi_node": false,
                       "fwd_rel_sigma": 0.0,
                       "models": {"sideways": [1.0, 2.0]}})")),
               ParseError);
}

TEST(ConvMeterTest, SingleMetricFeatureSetSupported) {
  const ConvMeter m =
      ConvMeter::fit_inference(planted_set(false), FeatureSet::kFlopsOnly);
  QueryPoint q;
  q.metrics_b1.flops = 1e9;
  q.per_device_batch = 8.0;
  EXPECT_GT(m.predict_inference(q), 0.0);
}

}  // namespace
}  // namespace convmeter

namespace convmeter {
namespace {

// ---- metamorphic properties of the fitted predictor -----------------------

TEST(ConvMeterPropertyTest, InferencePredictionIsAffineInBatch) {
  // Eq. 3: T(b) = b * k + c4, so increments must be constant in b.
  const ConvMeter m = ConvMeter::fit_inference(planted_set(false));
  QueryPoint q;
  q.metrics_b1.flops = 3e9;
  q.metrics_b1.conv_inputs = 5e6;
  q.metrics_b1.conv_outputs = 7e6;
  q.per_device_batch = 8.0;
  const double t8 = m.predict_inference(q);
  q.per_device_batch = 16.0;
  const double t16 = m.predict_inference(q);
  q.per_device_batch = 24.0;
  const double t24 = m.predict_inference(q);
  EXPECT_NEAR(t16 - t8, t24 - t16, 1e-9 * std::fabs(t16));
}

TEST(ConvMeterPropertyTest, PredictionDependsOnlyOnMetrics) {
  const ConvMeter m = ConvMeter::fit_training(planted_set(true));
  QueryPoint a;
  a.metrics_b1.flops = 2e9;
  a.metrics_b1.conv_inputs = 4e6;
  a.metrics_b1.conv_outputs = 5e6;
  a.metrics_b1.weights = 2e7;
  a.metrics_b1.layers = 80;
  a.per_device_batch = 32;
  a.num_devices = 8;
  a.num_nodes = 2;
  QueryPoint b = a;  // identical metrics -> identical prediction
  EXPECT_DOUBLE_EQ(m.predict_train_step(a).step, m.predict_train_step(b).step);
}

TEST(ConvMeterPropertyTest, SameMiniBatchSamePhaseCompute) {
  // With b = B/N fixed, the forward prediction must not depend on N.
  const ConvMeter m = ConvMeter::fit_training(planted_set(true));
  QueryPoint q;
  q.metrics_b1.flops = 2e9;
  q.metrics_b1.conv_inputs = 4e6;
  q.metrics_b1.conv_outputs = 5e6;
  q.metrics_b1.weights = 2e7;
  q.metrics_b1.layers = 80;
  q.per_device_batch = 32;
  q.num_devices = 4;
  q.num_nodes = 1;
  const double fwd4 = m.predict_train_step(q).fwd;
  q.num_devices = 16;
  q.num_nodes = 4;
  const double fwd16 = m.predict_train_step(q).fwd;
  EXPECT_DOUBLE_EQ(fwd4, fwd16);
}

TEST(ConvMeterPropertyTest, MoreDevicesMoreGradTime) {
  const ConvMeter m = ConvMeter::fit_training(planted_set(true));
  QueryPoint q;
  q.metrics_b1.flops = 2e9;
  q.metrics_b1.conv_inputs = 4e6;
  q.metrics_b1.conv_outputs = 5e6;
  q.metrics_b1.weights = 2e7;
  q.metrics_b1.layers = 80;
  q.per_device_batch = 32;
  q.num_devices = 4;
  const double g4 = m.predict_train_step(q).grad;
  q.num_devices = 32;
  q.num_nodes = 8;
  const double g32 = m.predict_train_step(q).grad;
  EXPECT_GT(g32, g4);  // planted c3 > 0
}

}  // namespace
}  // namespace convmeter

namespace convmeter {
namespace {

TEST(PredictionIntervalTest, NoiseFreeFitHasTightBand) {
  const ConvMeter m = ConvMeter::fit_inference(planted_set(false));
  QueryPoint q;
  q.metrics_b1.flops = 4e9;
  q.metrics_b1.conv_inputs = 8e6;
  q.metrics_b1.conv_outputs = 1e7;
  q.per_device_batch = 16;
  const PredictionInterval p = m.predict_inference_interval(q);
  EXPECT_DOUBLE_EQ(p.value, m.predict_inference(q));
  // Planted data is exactly linear -> near-zero residual sigma.
  EXPECT_LT(p.relative_sigma, 1e-6);
  EXPECT_NEAR(p.low, p.value, 1e-6 * p.value);
  EXPECT_NEAR(p.high, p.value, 1e-6 * p.value);
}

TEST(PredictionIntervalTest, NoisyFitHasWiderBand) {
  auto samples = planted_set(false);
  Rng rng(404);
  for (auto& s : samples) s.t_infer *= rng.lognormal_factor(0.2);
  const ConvMeter m = ConvMeter::fit_inference(samples);
  EXPECT_GT(m.forward_relative_sigma(), 0.05);
  QueryPoint q;
  q.metrics_b1.flops = 4e9;
  q.metrics_b1.conv_inputs = 8e6;
  q.metrics_b1.conv_outputs = 1e7;
  q.per_device_batch = 16;
  const PredictionInterval p = m.predict_inference_interval(q);
  EXPECT_LT(p.low, p.value);
  EXPECT_GT(p.high, p.value);
  // The band is symmetric in relative terms around the point estimate.
  EXPECT_NEAR(p.high - p.value, p.value - p.low, 1e-9 * p.value);
}

TEST(PredictionIntervalTest, LowIsFlooredAtZero) {
  auto samples = planted_set(false);
  Rng rng(405);
  for (auto& s : samples) s.t_infer *= rng.lognormal_factor(1.5);  // wild
  const ConvMeter m = ConvMeter::fit_inference(samples);
  QueryPoint q;
  q.metrics_b1.flops = 1e9;
  q.metrics_b1.conv_inputs = 2e6;
  q.metrics_b1.conv_outputs = 2.5e6;
  q.per_device_batch = 1;
  const PredictionInterval p = m.predict_inference_interval(q);
  EXPECT_GE(p.low, 0.0);
}

}  // namespace
}  // namespace convmeter
