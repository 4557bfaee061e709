// Baseline-predictor tests: the single-metric linear baselines, the MLP
// regressor on learnable synthetic functions, and the dippm family's
// parser-limitation contract.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "baselines/mlp.hpp"
#include "common/rng.hpp"
#include "predict/predictors.hpp"
#include "predict/registry.hpp"

namespace convmeter {
namespace {

std::vector<RuntimeSample> inference_samples() {
  std::vector<RuntimeSample> samples;
  Rng rng(31);
  for (int mdl = 0; mdl < 6; ++mdl) {
    const double f = 5e8 * (mdl + 1);
    for (const double batch : {1.0, 4.0, 16.0, 64.0, 256.0}) {
      RuntimeSample s;
      s.model = mdl == 0 ? "squeezenet1_0" : "net" + std::to_string(mdl);
      s.image_size = 128;
      s.global_batch = static_cast<std::int64_t>(batch);
      s.flops1 = f;
      s.inputs1 = f / 320.0;
      s.outputs1 = f / 260.0;
      s.weights = 1e6 * (mdl + 2);
      s.layers = 30.0 + 5 * mdl;
      s.t_infer = batch * (1.5e-12 * f + 2e-9 * s.inputs1) + 1e-4;
      s.t_infer *= rng.lognormal_factor(0.03);
      samples.push_back(s);
    }
  }
  return samples;
}

TEST(SingleMetricBaselineTest, FitsAndPredictsEachFeatureSet) {
  const auto samples = inference_samples();
  for (const auto& [name, fs] :
       {std::pair{"flops-only", FeatureSet::kFlopsOnly},
        std::pair{"inputs-only", FeatureSet::kInputsOnly},
        std::pair{"outputs-only", FeatureSet::kOutputsOnly},
        std::pair{"convmeter-fwd-only", FeatureSet::kCombined}}) {
    const auto p = make_predictor(name);
    p->fit(samples);
    const auto* linear = dynamic_cast<const PhaseLinearPredictor*>(p.get());
    ASSERT_NE(linear, nullptr) << name;
    EXPECT_EQ(linear->feature_set(), fs) << name;
    EXPECT_EQ(linear->target(), Phase::kInference) << name;
    EXPECT_GT(p->predict(samples.front()), 0.0) << name;
  }
}

TEST(SingleMetricBaselineTest, CombinedFitsBetterThanWorstSingleMetric) {
  const auto samples = inference_samples();
  const auto sse = [&](const char* name) {
    const auto p = make_predictor(name);
    p->fit(samples);
    double total = 0.0;
    for (const auto& s : samples) {
      const double e = p->predict(s) - s.t_infer;
      total += e * e;
    }
    return total;
  };
  EXPECT_LE(sse("convmeter-fwd-only"), sse("outputs-only") * 1.0001);
}

TEST(MlpTest, LearnsLinearFunction) {
  Rng rng(5);
  constexpr std::size_t n = 256;
  Matrix x(n, 2);
  Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = rng.uniform(0.0, 4.0);
    x(r, 1) = rng.uniform(0.0, 4.0);
    y[r] = std::exp(0.5 * x(r, 0) - 0.25 * x(r, 1));
  }
  MlpConfig cfg;
  cfg.epochs = 300;
  const MlpPredictor mlp = MlpPredictor::fit(x, y, cfg);
  // In-sample relative error should be small for a learnable target.
  double worst = 0.0;
  for (std::size_t r = 0; r < n; r += 16) {
    const double pred = mlp.predict({x(r, 0), x(r, 1)});
    worst = std::max(worst, std::fabs(pred - y[r]) / y[r]);
  }
  EXPECT_LT(worst, 0.25);
}

TEST(MlpTest, LossDecreasesWithTraining) {
  Rng rng(6);
  constexpr std::size_t n = 128;
  Matrix x(n, 2);
  Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = rng.uniform(0.0, 2.0);
    x(r, 1) = rng.uniform(0.0, 2.0);
    y[r] = std::exp(x(r, 0) + 0.5 * x(r, 1));
  }
  MlpConfig short_cfg;
  short_cfg.epochs = 2;
  MlpConfig long_cfg;
  long_cfg.epochs = 200;
  const double early = MlpPredictor::fit(x, y, short_cfg).loss(x, y);
  const double late = MlpPredictor::fit(x, y, long_cfg).loss(x, y);
  EXPECT_LT(late, early);
}

TEST(MlpTest, DeterministicForSeed) {
  Rng rng(7);
  Matrix x(32, 1);
  Vector y(32);
  for (std::size_t r = 0; r < 32; ++r) {
    x(r, 0) = rng.uniform(0.0, 1.0);
    y[r] = std::exp(x(r, 0));
  }
  MlpConfig cfg;
  cfg.epochs = 20;
  const double a = MlpPredictor::fit(x, y, cfg).predict({0.5});
  const double b = MlpPredictor::fit(x, y, cfg).predict({0.5});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(MlpTest, RejectsNonPositiveTargets) {
  Matrix x(4, 1, 1.0);
  EXPECT_THROW(MlpPredictor::fit(x, {1.0, 2.0, 0.0, 3.0}), InvalidArgument);
}

TEST(MlpTest, PredictWidthChecked) {
  Matrix x(8, 2, 1.0);
  Vector y(8, 1.0);
  for (std::size_t r = 0; r < 8; ++r) x(r, 0) = static_cast<double>(r);
  MlpConfig cfg;
  cfg.epochs = 1;
  const MlpPredictor mlp = MlpPredictor::fit(x, y, cfg);
  EXPECT_THROW(mlp.predict({1.0}), InvalidArgument);
}

PredictorOptions learned_options(std::size_t epochs) {
  PredictorOptions options;
  options.mlp.epochs = epochs;
  return options;
}

TEST(DippmLikeTest, CannotParseSqueezeNet) {
  const auto dippm = make_predictor("dippm");
  const auto& limited = dynamic_cast<const LearnedPredictor&>(*dippm);
  EXPECT_FALSE(limited.can_parse("squeezenet1_0"));
  EXPECT_TRUE(limited.can_parse("resnet50"));
  EXPECT_TRUE(limited.can_parse("squeezenet1_1"));
  // The plain mlp family shares the engine but not the parser limitation.
  const auto mlp = make_predictor("mlp");
  EXPECT_TRUE(
      dynamic_cast<const LearnedPredictor&>(*mlp).can_parse("squeezenet1_0"));
}

TEST(DippmLikeTest, FitsAndPredictsParsableModels) {
  const auto samples = inference_samples();
  const auto p = make_predictor("dippm", learned_options(50));
  p->fit(samples);
  for (const auto& s : samples) {
    if (s.model == "squeezenet1_0") continue;
    EXPECT_GT(p->predict(s), 0.0);
  }
}

TEST(DippmLikeTest, PredictThrowsForUnparsableModel) {
  const auto samples = inference_samples();
  const auto p = make_predictor("dippm", learned_options(5));
  p->fit(samples);
  const RuntimeSample& sq = samples.front();
  ASSERT_EQ(sq.model, "squeezenet1_0");
  EXPECT_THROW(p->predict(sq), InvalidArgument);
}

TEST(DippmLikeTest, NeedsEnoughSamples) {
  const auto all = inference_samples();
  // The first five samples are squeezenet1_0's, which dippm drops, so
  // eight samples leave only three usable ones; mlp keeps all eight.
  const std::vector<RuntimeSample> few(all.begin(), all.begin() + 8);
  EXPECT_THROW(make_predictor("dippm", learned_options(5))->fit(few),
               InvalidArgument);
  EXPECT_NO_THROW(make_predictor("mlp", learned_options(5))->fit(few));
  const std::vector<RuntimeSample> seven(all.begin() + 5, all.begin() + 12);
  EXPECT_THROW(make_predictor("mlp", learned_options(5))->fit(seven),
               InvalidArgument);
}

}  // namespace
}  // namespace convmeter

// ---- Paleo-like analytical baseline -------------------------------------

#include "baselines/paleo_like.hpp"
#include "models/zoo.hpp"
#include "sim/inference_sim.hpp"

namespace convmeter {
namespace {

TEST(PaleoLikeTest, PredictsPositiveTimes) {
  const PaleoLikePredictor p(PaleoDeviceSheet::a100_datasheet());
  const Graph g = models::build("resnet18");
  const double t1 = p.predict(g, Shape::nchw(1, 3, 224, 224));
  const double t64 = p.predict(g, Shape::nchw(64, 3, 224, 224));
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t64, 10.0 * t1);  // near-linear in batch
}

TEST(PaleoLikeTest, HigherPlatformPercentIsFaster) {
  const Graph g = models::build("resnet18");
  const Shape in = Shape::nchw(8, 3, 224, 224);
  const double slow =
      PaleoLikePredictor(PaleoDeviceSheet::a100_datasheet(0.25)).predict(g, in);
  const double fast =
      PaleoLikePredictor(PaleoDeviceSheet::a100_datasheet(0.9)).predict(g, in);
  EXPECT_GT(slow, fast);
}

TEST(PaleoLikeTest, UnderestimatesVsCalibratedSimulator) {
  // The critique the paper levels at pure-analytical prediction: datasheet
  // peaks are optimistic, so the estimate comes in low at small batch.
  const Graph g = models::build("resnet50");
  const Shape in = Shape::nchw(1, 3, 224, 224);
  const double paleo =
      PaleoLikePredictor(PaleoDeviceSheet::a100_datasheet(1.0)).predict(g, in);
  InferenceSimulator sim(a100_80gb());
  EXPECT_LT(paleo, sim.expected(g, in));
}

TEST(PaleoLikeTest, ValidatesSheet) {
  PaleoDeviceSheet bad;
  EXPECT_THROW(PaleoLikePredictor{bad}, InvalidArgument);
  PaleoDeviceSheet out_of_range = PaleoDeviceSheet::a100_datasheet();
  out_of_range.platform_percent = 1.5;
  EXPECT_THROW(PaleoLikePredictor{out_of_range}, InvalidArgument);
}

TEST(EdgeDeviceTest, PresetIsRegistered) {
  const DeviceSpec edge = device_by_name("jetson_edge");
  EXPECT_EQ(edge.name, "jetson_edge");
  // Slower than the A100, faster than one Xeon core at large kernels.
  EXPECT_LT(edge.peak_flops, a100_80gb().peak_flops);
  EXPECT_GT(edge.peak_flops, xeon_gold_5318y_core().peak_flops);
}

}  // namespace
}  // namespace convmeter
