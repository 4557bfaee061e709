// End-to-end integration tests: full campaign -> fit -> leave-one-out
// pipelines over the simulated devices, asserting the *shapes* of the
// paper's findings (which predictor wins, error bands, scalability
// orderings) rather than exact numbers.
#include <gtest/gtest.h>

#include "backend/sim_backend.hpp"
#include "collect/campaign.hpp"
#include "core/convmeter.hpp"
#include "core/scalability.hpp"
#include "predict/evaluate.hpp"
#include "exec/executor.hpp"
#include "metrics/metrics.hpp"
#include "models/blocks.hpp"
#include "models/zoo.hpp"
#include "sim/cost_model.hpp"

namespace convmeter {
namespace {

std::vector<std::string> benchmark_models() {
  return {"alexnet",       "vgg16",           "resnet18",
          "resnet50",      "resnext50_32x4d", "squeezenet1_0",
          "mobilenet_v2",  "efficientnet_b0", "regnet_x_8gf",
          "densenet121"};
}

std::vector<RuntimeSample> gpu_inference_samples() {
  static const std::vector<RuntimeSample> samples = [] {
    SimInferenceBackend sim(a100_80gb());
    InferenceSweep sweep = InferenceSweep::paper_default(benchmark_models());
    sweep.repetitions = 2;
    return run_inference_campaign(sim, sweep);
  }();
  return samples;
}

TEST(IntegrationInference, PooledAccuracyInPaperBand) {
  const LooResult r = evaluate_loo("convmeter-fwd-only",
                                   gpu_inference_samples());
  // Paper (Fig. 3, GPU): R^2 = 0.96. Require at least a strong fit.
  EXPECT_GT(r.pooled.r2, 0.9);
  EXPECT_LT(r.pooled.nrmse, 0.2);
}

TEST(IntegrationInference, CombinedMetricsBeatEverySingleMetric) {
  // The Fig. 2 finding: FLOPs+Inputs+Outputs is the most accurate feature
  // set; FLOPs alone is the weakest kind of predictor on GPUs.
  const auto samples = gpu_inference_samples();
  const double r2_combined =
      evaluate_loo("convmeter-fwd-only", samples).pooled.r2;
  for (const char* name : {"flops-only", "inputs-only", "outputs-only"}) {
    EXPECT_GT(r2_combined, evaluate_loo(name, samples).pooled.r2) << name;
  }
  EXPECT_LT(evaluate_loo("flops-only", samples).pooled.r2, 0.7);
}

TEST(IntegrationInference, CpuCampaignAlsoFitsWell) {
  SimInferenceBackend sim(xeon_gold_5318y_core());
  InferenceSweep sweep = InferenceSweep::paper_default(benchmark_models());
  sweep.repetitions = 1;
  sweep.batch_sizes = {1, 4, 16, 64};  // CPU sweep uses smaller batches
  const auto samples = run_inference_campaign(sim, sweep);
  const LooResult r = evaluate_loo("convmeter-fwd-only", samples);
  EXPECT_GT(r.pooled.r2, 0.9);
}

TEST(IntegrationInference, UnseenModelPredictedWithoutRefit) {
  // Fit on all but wide_resnet50_2, then predict it from metrics alone.
  const auto samples = gpu_inference_samples();
  const ConvMeter model = ConvMeter::fit_inference(samples);
  const Graph unseen = models::build("wide_resnet50_2");
  QueryPoint q;
  q.metrics_b1 = compute_metrics_b1(unseen, 224);
  q.per_device_batch = 64.0;
  const double predicted = model.predict_inference(q);

  SimInferenceBackend sim(a100_80gb());
  const double actual = sim.simulator().expected(unseen, Shape::nchw(64, 3, 224, 224));
  EXPECT_GT(predicted, 0.4 * actual);
  EXPECT_LT(predicted, 2.5 * actual);
}

TEST(IntegrationTraining, SingleGpuStepErrorsInPaperBand) {
  SimTrainingBackend sim(a100_80gb(), nvlink_hdr200_fabric());
  TrainingSweep sweep = TrainingSweep::paper_single_gpu(benchmark_models());
  sweep.repetitions = 2;
  const auto samples = run_training_campaign(sim, sweep);
  const LooResult r = evaluate_loo("convmeter", samples);
  // Paper Table 3 single GPU: MAPE 0.18, R^2 0.88.
  EXPECT_LT(r.pooled.mape, 0.30);
  EXPECT_GT(r.pooled.r2, 0.85);
}

TEST(IntegrationTraining, DistributedStepErrorsInPaperBand) {
  SimTrainingBackend sim(a100_80gb(), nvlink_hdr200_fabric());
  TrainingSweep sweep = TrainingSweep::paper_distributed(benchmark_models());
  sweep.repetitions = 1;
  const auto samples = run_training_campaign(sim, sweep);
  const LooResult r = evaluate_loo("convmeter", samples);
  // Paper: distributed MAPE 0.15, R^2 0.78 with higher comm variance.
  EXPECT_LT(r.pooled.mape, 0.30);
  EXPECT_GT(r.pooled.r2, 0.7);
}

TEST(IntegrationScalability, AlexNetTurnsEarlierThanResNet50) {
  SimTrainingBackend sim(a100_80gb(), nvlink_hdr200_fabric());
  TrainingSweep sweep = TrainingSweep::paper_distributed(benchmark_models());
  sweep.repetitions = 1;
  const auto samples = run_training_campaign(sim, sweep);
  const ConvMeter model = ConvMeter::fit_training(samples);
  const ScalabilityAnalyzer analyzer(model, 4);

  const GraphMetrics alex = compute_metrics_b1(models::build("alexnet"), 128);
  const GraphMetrics rn50 = compute_metrics_b1(models::build("resnet50"), 128);
  const int tp_alex = analyzer.turning_point(alex, 64.0, 64, 1.7);
  const int tp_rn50 = analyzer.turning_point(rn50, 64.0, 64, 1.7);
  EXPECT_LT(tp_alex, tp_rn50);
}

TEST(IntegrationScalability, PredictionTracksSimulatedThroughputCurve) {
  SimTrainingBackend sim(a100_80gb(), nvlink_hdr200_fabric());
  TrainingSweep sweep = TrainingSweep::paper_distributed(benchmark_models());
  sweep.repetitions = 1;
  const auto samples = run_training_campaign(sim, sweep);
  const ConvMeter model = ConvMeter::fit_training(samples);
  const ScalabilityAnalyzer analyzer(model, 4);

  const Graph g = models::build("resnet50");
  const GraphMetrics m = compute_metrics_b1(g, 128);
  for (const int nodes : {1, 4, 16}) {
    TrainConfig cfg;
    cfg.num_nodes = nodes;
    cfg.num_devices = 4 * nodes;
    const double simulated =
        64.0 * cfg.num_devices /
        sim.simulator().expected_step(g, Shape::nchw(64, 3, 128, 128), cfg).step;
    const auto points = analyzer.node_sweep(m, 64.0, nodes);
    const double predicted = points.back().throughput;
    EXPECT_GT(predicted, 0.5 * simulated);
    EXPECT_LT(predicted, 2.0 * simulated);
  }
}

TEST(IntegrationBlocks, BlockwisePredictionFitsWell) {
  SimInferenceBackend sim(a100_80gb());
  std::vector<BlockCase> blocks;
  for (const auto& nb : models::paper_blocks()) {
    models::BlockExtraction ex = models::extract_paper_block(nb);
    blocks.push_back(
        {nb.label, std::move(ex.block), std::move(ex.input_shape)});
  }
  const auto samples =
      run_block_campaign(sim, blocks, {1, 8, 32, 128, 512}, 2, 99);
  const LooResult r = evaluate_loo("convmeter-fwd-only", samples);
  // Paper Fig. 4: R^2 = 0.997 over blocks; require a strong fit.
  EXPECT_GT(r.pooled.r2, 0.9);
}

TEST(IntegrationBaseline, ConvMeterBeatsDippmLikeOnHeldOutModel) {
  // Fig. 6 protocol: image 128, varied batch; hold out one model.
  SimInferenceBackend sim(a100_80gb());
  InferenceSweep sweep;
  sweep.models = benchmark_models();
  sweep.image_sizes = {128};
  sweep.batch_sizes = {16, 64, 256, 1024, 2000};
  sweep.repetitions = 2;
  const auto samples = run_inference_campaign(sim, sweep);

  const std::string held_out = "resnet50";
  std::vector<RuntimeSample> train;
  std::vector<RuntimeSample> test;
  for (const auto& s : samples) {
    (s.model == held_out ? test : train).push_back(s);
  }
  const ConvMeter ours = ConvMeter::fit_inference(train);
  PredictorOptions options;
  options.mlp.epochs = 120;
  const auto theirs = make_predictor("dippm", options);
  theirs->fit(train);

  std::vector<double> ours_pred;
  std::vector<double> theirs_pred;
  std::vector<double> measured;
  for (const auto& s : test) {
    ours_pred.push_back(ours.predict_inference(QueryPoint::from_sample(s)));
    theirs_pred.push_back(theirs->predict(s));
    measured.push_back(s.t_infer);
  }
  const double ours_mape = compute_errors(ours_pred, measured).mape;
  const double theirs_mape = compute_errors(theirs_pred, measured).mape;
  EXPECT_LT(ours_mape, theirs_mape);
}

TEST(IntegrationExecutor, RealCpuTimesCorrelateWithMetrics) {
  // The real executor's measured times should rank models consistently
  // with their FLOP counts — the premise behind the whole approach.
  Executor exec(0);
  const Shape in = Shape::nchw(1, 3, 64, 64);
  const double t_small =
      exec.run_random(models::build("squeezenet1_1"), in).total_seconds;
  const double t_big =
      exec.run_random(models::build("resnet50"), in).total_seconds;
  EXPECT_GT(t_big, t_small);
}

}  // namespace
}  // namespace convmeter
