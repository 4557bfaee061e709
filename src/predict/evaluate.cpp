#include "predict/evaluate.hpp"

#include <map>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace convmeter {

namespace {

/// Fallback for families without accumulator support: materialized samples,
/// one refit per held-out ConvNet.
LooResult evaluate_loo_refit(
    const std::function<std::unique_ptr<Predictor>()>& factory,
    const std::vector<RuntimeSample>& samples) {
  CM_CHECK(!samples.empty(), "evaluate_loo: empty sample set");
  std::set<std::string> labels;
  for (const auto& s : samples) labels.insert(s.model);
  CM_CHECK(labels.size() >= 2, "evaluate_loo needs at least two ConvNets");

  LooResult result;
  std::vector<double> pooled_pred;
  std::vector<double> pooled_meas;

  for (const std::string& label : labels) {
    std::vector<RuntimeSample> train;
    std::vector<RuntimeSample> test;
    for (const auto& s : samples) {
      (s.model == label ? test : train).push_back(s);
    }
    const std::unique_ptr<Predictor> predictor = factory();
    predictor->fit(train);

    GroupEvaluation eval;
    eval.group = label;
    for (const auto& s : test) {
      double pred = 0.0;
      try {
        pred = predictor->predict(s);
      } catch (const InvalidArgument&) {
        // The family rejects this sample (e.g. dippm's parser limitation);
        // score what it can predict and report the rest as skipped.
        ++result.skipped;
        continue;
      }
      eval.predicted.push_back(pred);
      eval.measured.push_back(target_value(s, predictor->target()));
      pooled_pred.push_back(eval.predicted.back());
      pooled_meas.push_back(eval.measured.back());
    }
    // Fewer than 2 scored samples yields no per-group report, only a
    // pooled contribution (see the header contract).
    if (eval.measured.size() >= 2) {
      eval.errors = compute_errors(eval.predicted, eval.measured);
      result.per_group.push_back(std::move(eval));
    }
  }

  if (obs::enabled()) {
    obs::MetricsRegistry::instance()
        .counter("predict.loo.folds")
        .add(labels.size());
  }
  result.pooled = compute_errors(pooled_pred, pooled_meas);
  return result;
}

/// Streaming evaluation for StreamingFitCapable families: two passes over
/// the stream, one model solve per ConvNet from the exact complement of its
/// accumulator (see the header comment).
LooResult evaluate_loo_streaming(
    const std::function<std::unique_ptr<Predictor>()>& factory,
    StreamingFitCapable& probe, SampleStream& samples,
    const LooOptions& loo_options) {
  // Pass 1: global + per-ConvNet sufficient statistics.
  const std::unique_ptr<FitAccumulator> global = probe.make_accumulator();
  std::map<std::string, std::unique_ptr<FitAccumulator>> groups;
  RuntimeSample s;
  samples.reset();
  while (samples.next(s)) {
    global->observe(s);
    auto it = groups.find(s.model);
    if (it == groups.end()) {
      it = groups.emplace(s.model, probe.make_accumulator()).first;
    }
    it->second->observe(s);
  }
  CM_CHECK(global->count() > 0, "evaluate_loo: empty sample set");
  CM_CHECK(groups.size() >= 2, "evaluate_loo needs at least two ConvNets");

  // One fold model per ConvNet, solved from global minus the held-out
  // group — no refit pass over the data.
  std::map<std::string, std::unique_ptr<Predictor>> folds;
  for (const auto& [label, acc] : groups) {
    const std::unique_ptr<FitAccumulator> complement = global->clone();
    complement->subtract(*acc);
    std::unique_ptr<Predictor> fold = factory();
    auto* streaming = dynamic_cast<StreamingFitCapable*>(fold.get());
    CM_CHECK(streaming != nullptr,
             "evaluate_loo factory produced predictors of different types");
    streaming->fit_from_accumulator(*complement);
    folds.emplace(label, std::move(fold));
  }

  // Pass 2: score every sample against its own ConvNet's fold model.
  struct GroupScore {
    GroupEvaluation eval;
    ErrorAccumulator errors;
  };
  std::map<std::string, GroupScore> scores;
  ErrorAccumulator pooled;
  std::vector<double> pooled_pred;
  std::vector<double> pooled_meas;
  LooResult result;
  samples.reset();
  while (samples.next(s)) {
    const Predictor& fold = *folds.at(s.model);
    double pred = 0.0;
    try {
      pred = fold.predict(s);
    } catch (const InvalidArgument&) {
      ++result.skipped;
      continue;
    }
    const double meas = target_value(s, fold.target());
    GroupScore& score = scores[s.model];
    score.eval.group = s.model;
    score.errors.observe(pred, meas);
    pooled.observe(pred, meas);
    if (loo_options.collect_points) {
      score.eval.predicted.push_back(pred);
      score.eval.measured.push_back(meas);
      pooled_pred.push_back(pred);
      pooled_meas.push_back(meas);
    }
  }

  for (auto& [label, score] : scores) {
    if (score.errors.count() < 2) continue;  // pooled contribution only
    score.eval.errors = loo_options.collect_points
                            ? compute_errors(score.eval.predicted,
                                             score.eval.measured)
                            : score.errors.report();
    result.per_group.push_back(std::move(score.eval));
  }
  result.pooled = loo_options.collect_points
                      ? compute_errors(pooled_pred, pooled_meas)
                      : pooled.report();
  if (obs::enabled()) {
    obs::MetricsRegistry::instance()
        .counter("predict.loo.folds")
        .add(groups.size());
  }
  return result;
}

}  // namespace

LooResult evaluate_loo(
    const std::function<std::unique_ptr<Predictor>()>& factory,
    SampleStream& samples, const LooOptions& loo_options) {
  CM_TRACE_SPAN("predict.evaluate_loo", "predict");
  const std::unique_ptr<Predictor> probe = factory();
  auto* streaming = dynamic_cast<StreamingFitCapable*>(probe.get());
  if (streaming == nullptr) {
    return evaluate_loo_refit(factory, materialize(samples));
  }
  return evaluate_loo_streaming(factory, *streaming, samples, loo_options);
}

LooResult evaluate_loo(
    const std::function<std::unique_ptr<Predictor>()>& factory,
    const std::vector<RuntimeSample>& samples) {
  VectorSampleStream stream(samples);
  return evaluate_loo(factory, stream);
}

LooResult evaluate_loo(const std::string& predictor_name,
                       SampleStream& samples, const PredictorOptions& options,
                       const LooOptions& loo_options) {
  return evaluate_loo([&] { return make_predictor(predictor_name, options); },
                      samples, loo_options);
}

LooResult evaluate_loo(const std::string& predictor_name,
                       const std::vector<RuntimeSample>& samples,
                       const PredictorOptions& options) {
  VectorSampleStream stream(samples);
  return evaluate_loo(predictor_name, stream, options);
}

}  // namespace convmeter
