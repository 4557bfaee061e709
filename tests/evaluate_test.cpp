// Leave-one-ConvNet-out evaluation tests on planted data where the exact
// expected behaviour is known, exercised through the generic predictor
// harness (predict/evaluate.hpp).
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "predict/evaluate.hpp"

namespace convmeter {
namespace {

/// Builds samples for `num_models` synthetic ConvNets obeying one shared
/// exact linear law, so LOO predictions are exact.
std::vector<RuntimeSample> lawful_samples(int num_models) {
  std::vector<RuntimeSample> samples;
  for (int mdl = 0; mdl < num_models; ++mdl) {
    const double f = 1e9 * (mdl + 1);
    for (const double batch : {1.0, 4.0, 16.0, 64.0}) {
      for (const int devices : {1, 4, 8}) {
        RuntimeSample s;
        s.model = "net" + std::to_string(mdl);
        s.device = "synthetic";
        s.image_size = 64;
        s.num_devices = devices;
        s.num_nodes = devices > 4 ? 2 : 1;
        s.global_batch = static_cast<std::int64_t>(batch * devices);
        s.flops1 = f;
        s.inputs1 = f / 300.0;
        s.outputs1 = f / 250.0;
        s.weights = f / 90.0;
        s.layers = 40.0 + 3.0 * mdl;
        s.t_infer =
            batch * (2e-12 * f + 1e-9 * s.inputs1 + 2e-9 * s.outputs1) + 5e-5;
        s.t_fwd = s.t_infer;
        s.t_bwd = 2.2 * s.t_fwd;
        s.t_grad = 2e-5 * s.layers + 5e-11 * s.weights + 4e-5 * devices;
        s.t_step = s.t_fwd + s.t_bwd + s.t_grad;
        samples.push_back(s);
      }
    }
  }
  return samples;
}

TEST(EvaluatePhaseTest, ExactLawGivesNearZeroError) {
  const auto samples = lawful_samples(5);
  const LooResult r = evaluate_loo("convmeter-fwd-only", samples);
  EXPECT_GT(r.pooled.r2, 0.999);
  EXPECT_LT(r.pooled.mape, 1e-6);
  EXPECT_EQ(r.per_group.size(), 5u);
  EXPECT_EQ(r.skipped, 0u);
}

TEST(EvaluatePhaseTest, GroupsSortedByName) {
  const auto samples = lawful_samples(4);
  PredictorOptions options;
  options.phase = Phase::kForward;
  const LooResult r = evaluate_loo("convmeter-fwd-only", samples, options);
  for (std::size_t i = 1; i < r.per_group.size(); ++i) {
    EXPECT_LT(r.per_group[i - 1].group, r.per_group[i].group);
  }
}

TEST(EvaluatePhaseTest, OutlierModelShowsHighHeldOutError) {
  auto samples = lawful_samples(4);
  // Make net3 three times slower than the shared law predicts.
  for (auto& s : samples) {
    if (s.model == "net3") s.t_infer *= 3.0;
  }
  const LooResult r = evaluate_loo("convmeter-fwd-only", samples);
  const auto& outlier = r.per_group.back();
  ASSERT_EQ(outlier.group, "net3");
  // Held out, net3 is predicted from the conforming law -> ~3x off. (The
  // conforming groups also degrade somewhat because net3 contaminates
  // their training sets — that is inherent to the LOO protocol.)
  EXPECT_GT(outlier.errors.mape, 0.3);
  EXPECT_LT(r.pooled.r2, 0.99);
}

TEST(EvaluatePhaseTest, SingleMetricWorseThanCombinedOnMixedData) {
  // Give the inputs metric an independent influence so FLOPs-only cannot
  // explain everything.
  auto samples = lawful_samples(6);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].inputs1 *= (1.0 + 0.5 * ((i * 29) % 7));
    const double b = samples[i].mini_batch();
    samples[i].t_infer = b * (2e-12 * samples[i].flops1 +
                              1e-9 * samples[i].inputs1 +
                              2e-9 * samples[i].outputs1) +
                         5e-5;
  }
  const double mape_combined =
      evaluate_loo("convmeter-fwd-only", samples).pooled.mape;
  const double mape_flops = evaluate_loo("flops-only", samples).pooled.mape;
  EXPECT_LT(mape_combined, mape_flops);
}

TEST(EvaluateTrainStepTest, ExactLawGivesNearZeroError) {
  const auto samples = lawful_samples(5);
  const LooResult r = evaluate_loo("convmeter", samples);
  EXPECT_GT(r.pooled.r2, 0.999);
  EXPECT_LT(r.pooled.mape, 1e-4);
}

TEST(EvaluateTrainStepTest, PooledCountsEverySample) {
  const auto samples = lawful_samples(3);
  const LooResult r = evaluate_loo("convmeter", samples);
  EXPECT_EQ(r.pooled.count, samples.size());
}

TEST(EvaluateTrainStepTest, RequiresTwoModels) {
  const auto samples = lawful_samples(1);
  EXPECT_THROW(evaluate_loo("convmeter", samples), InvalidArgument);
  EXPECT_THROW(evaluate_loo("convmeter", {}), InvalidArgument);
}

TEST(EvaluateTest, UnknownPredictorNameRejected) {
  EXPECT_THROW(evaluate_loo("no-such-predictor", lawful_samples(3)),
               InvalidArgument);
}


// ---------------------------------------------------------------------------
// LOO mechanics on both evaluation paths: streaming (convmeter-fwd-only
// accumulates) and materialize-and-refit (paleo, mlp).

TEST(LooTest, RequiresTwoGroups) {
  EXPECT_THROW(evaluate_loo("convmeter-fwd-only", lawful_samples(1)),
               InvalidArgument);
  EXPECT_THROW(evaluate_loo("paleo", lawful_samples(1)), InvalidArgument);
}

TEST(LooTest, PooledCountsAllSamples) {
  const auto samples = lawful_samples(2);
  EXPECT_EQ(evaluate_loo("convmeter-fwd-only", samples).pooled.count,
            samples.size());
  EXPECT_EQ(evaluate_loo("paleo", samples).pooled.count, samples.size());
}

TEST(LooTest, SingleSampleGroupContributesToPooledOnly) {
  // "lone" holds exactly one sample: per-group error metrics need at least
  // two points, so it must not appear in per_group, but its prediction
  // still counts pooled. Checked on both evaluation paths.
  auto samples = lawful_samples(2);
  RuntimeSample lone = samples.front();
  lone.model = "lone";
  samples.push_back(lone);

  PredictorOptions fast_mlp;
  fast_mlp.mlp.epochs = 5;
  for (const char* family : {"convmeter-fwd-only", "paleo", "mlp"}) {
    const LooResult r = evaluate_loo(family, samples, fast_mlp);
    ASSERT_EQ(r.per_group.size(), 2u) << family;
    EXPECT_EQ(r.per_group[0].group, "net0") << family;
    EXPECT_EQ(r.per_group[1].group, "net1") << family;
    EXPECT_EQ(r.pooled.count, samples.size()) << family;
    EXPECT_EQ(r.skipped, 0u) << family;
  }
  // The streaming path's lone prediction is exact under the shared law.
  EXPECT_NEAR(evaluate_loo("convmeter-fwd-only", samples).pooled.mape, 0.0,
              1e-6);
}

// ---------------------------------------------------------------------------
// Streaming LOO: the group-aware accumulator path must agree with the
// refit-per-fold protocol it replaced, and accumulator fits must agree
// with vector fits.

TEST(StreamingLooTest, MatchesRefitPerFoldWithinTolerance) {
  // Planted lawful data plus noise, evaluated both ways: via the streaming
  // accumulator path (convmeter-fwd-only is StreamingFitCapable) and via
  // the explicit refit fallback driven through the factory overload with a
  // predictor wrapper that hides the streaming capability.
  auto samples = lawful_samples(5);
  Rng rng(23);
  for (auto& s : samples) s.t_infer *= 1.0 + rng.uniform(-0.05, 0.05);

  const LooResult streamed = evaluate_loo("convmeter-fwd-only", samples);

  // Hide StreamingFitCapable behind a plain Predictor wrapper, forcing the
  // materialize-and-refit fallback on the same data.
  class HideStreaming : public Predictor {
   public:
    HideStreaming()
        : Predictor("convmeter-fwd-only"),
          inner_(make_predictor("convmeter-fwd-only")) {}
    Phase target() const override { return inner_->target(); }

   protected:
    void do_fit(SampleStream& stream) override { inner_->fit(stream); }
    double do_predict(const RuntimeSample& s) const override {
      return inner_->predict(s);
    }
    json::Value model_json() const override { return json::Value(); }
    void load_model_json(const json::Value&) override {}

   private:
    std::unique_ptr<Predictor> inner_;
  };
  const LooResult refit = evaluate_loo(
      [] { return std::unique_ptr<Predictor>(new HideStreaming()); }, samples);

  ASSERT_EQ(streamed.per_group.size(), refit.per_group.size());
  EXPECT_NEAR(streamed.pooled.r2, refit.pooled.r2, 1e-9);
  EXPECT_NEAR(streamed.pooled.mape, refit.pooled.mape, 1e-9);
  EXPECT_NEAR(streamed.pooled.nrmse, refit.pooled.nrmse, 1e-9);
  for (std::size_t g = 0; g < streamed.per_group.size(); ++g) {
    EXPECT_EQ(streamed.per_group[g].group, refit.per_group[g].group);
    EXPECT_NEAR(streamed.per_group[g].errors.mape,
                refit.per_group[g].errors.mape, 1e-9);
  }
}

TEST(StreamingLooTest, CollectPointsOffKeepsReportsAndDropsVectors) {
  const auto samples = lawful_samples(4);
  VectorSampleStream stream(samples);
  LooOptions loo;
  loo.collect_points = false;
  const LooResult lean =
      evaluate_loo("convmeter-fwd-only", stream, PredictorOptions{}, loo);
  const LooResult full = evaluate_loo("convmeter-fwd-only", samples);
  ASSERT_EQ(lean.per_group.size(), full.per_group.size());
  for (std::size_t g = 0; g < lean.per_group.size(); ++g) {
    EXPECT_TRUE(lean.per_group[g].predicted.empty());
    EXPECT_NEAR(lean.per_group[g].errors.mape, full.per_group[g].errors.mape,
                1e-12);
    EXPECT_NEAR(lean.per_group[g].errors.r2, full.per_group[g].errors.r2,
                1e-9);
  }
  EXPECT_NEAR(lean.pooled.mape, full.pooled.mape, 1e-12);
}

TEST(StreamingLooTest, TrainingFamilyStreamsToo) {
  const auto samples = lawful_samples(4);
  PredictorOptions options;
  const LooResult r = evaluate_loo("convmeter", samples, options);
  EXPECT_EQ(r.per_group.size(), 4u);
  EXPECT_GT(r.pooled.r2, 0.99);
}

TEST(StreamFitTest, StreamAndVectorFitsAreIdentical) {
  auto samples = lawful_samples(3);
  Rng rng(31);
  for (auto& s : samples) s.t_infer *= 1.0 + rng.uniform(-0.02, 0.02);

  for (const char* family :
       {"convmeter-fwd-only", "convmeter", "flops-only", "inputs-only"}) {
    const auto via_vector = make_predictor(family);
    via_vector->fit(samples);
    const auto via_stream = make_predictor(family);
    VectorSampleStream stream(samples);
    via_stream->fit(stream);
    for (const auto& s : samples) {
      EXPECT_DOUBLE_EQ(via_vector->predict(s), via_stream->predict(s))
          << family;
    }
  }
}

}  // namespace
}  // namespace convmeter
