#include "predict/predictors.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/accumulate.hpp"

namespace convmeter {

// ---- ConvMeterPredictor ---------------------------------------------------

const ConvMeter& ConvMeterPredictor::model() const {
  CM_CHECK(model_.has_value(), "convmeter predictor has no fitted model");
  return *model_;
}

void ConvMeterPredictor::do_fit(SampleStream& samples) {
  model_ = ConvMeter::fit_training(samples);
}

std::unique_ptr<FitAccumulator> ConvMeterPredictor::make_accumulator() const {
  return std::make_unique<TypedFitAccumulator<ConvMeterAccumulator>>(
      ConvMeterAccumulator(/*training=*/true));
}

void ConvMeterPredictor::fit_from_accumulator(const FitAccumulator& acc) {
  const auto* typed =
      dynamic_cast<const TypedFitAccumulator<ConvMeterAccumulator>*>(&acc);
  CM_CHECK(typed != nullptr,
           "convmeter predictor got a foreign fit accumulator");
  // No residual-sigma pass here: accumulator fits serve point predictions
  // (the LOO protocol), not uncertainty bands.
  model_ = typed->state().solve();
  set_fitted();
}

double ConvMeterPredictor::do_predict(const RuntimeSample& sample) const {
  CM_CHECK(model_.has_value(), "convmeter predictor has no fitted model");
  return model_->predict_train_step(QueryPoint::from_sample(sample)).step;
}

json::Value ConvMeterPredictor::model_json() const {
  CM_CHECK(model_.has_value(), "convmeter predictor has no fitted model");
  return model_->to_json();
}

void ConvMeterPredictor::load_model_json(const json::Value& model) {
  ConvMeter loaded = ConvMeter::from_json(model);
  if (!loaded.has_training_model()) {
    throw ParseError(
        "'convmeter' model file lacks the training coefficient blocks");
  }
  model_ = std::move(loaded);
}

// ---- PhaseLinearPredictor -------------------------------------------------

PhaseLinearPredictor::PhaseLinearPredictor(std::string name, Phase phase,
                                           FeatureSet fs)
    : Predictor(std::move(name)), phase_(phase), fs_(fs) {}

void PhaseLinearPredictor::do_fit(SampleStream& samples) {
  PhaseAccumulator acc(phase_, fs_);
  RuntimeSample s;
  samples.reset();
  while (samples.next(s)) acc.observe(s);
  multi_node_ = acc.multi_node();
  model_ = acc.solve();
}

std::unique_ptr<FitAccumulator> PhaseLinearPredictor::make_accumulator()
    const {
  return std::make_unique<TypedFitAccumulator<PhaseAccumulator>>(
      PhaseAccumulator(phase_, fs_));
}

void PhaseLinearPredictor::fit_from_accumulator(const FitAccumulator& acc) {
  const auto* typed =
      dynamic_cast<const TypedFitAccumulator<PhaseAccumulator>*>(&acc);
  CM_CHECK(typed != nullptr && typed->state().phase() == phase_,
           "phase predictor got a foreign fit accumulator");
  multi_node_ = typed->state().multi_node();
  model_ = typed->state().solve();
  set_fitted();
}

const LinearModel& PhaseLinearPredictor::model() const {
  CM_CHECK(model_.has_value(), "phase predictor has no fitted model");
  return *model_;
}

double PhaseLinearPredictor::do_predict(const RuntimeSample& sample) const {
  CM_CHECK(model_.has_value(), "phase predictor has no fitted model");
  return model_->predict(phase_features(sample, phase_, fs_, multi_node_));
}

json::Value PhaseLinearPredictor::model_json() const {
  CM_CHECK(model_.has_value(), "phase predictor has no fitted model");
  json::Value::Object obj;
  obj.emplace("phase", json::Value(phase_name(phase_)));
  obj.emplace("feature_set", json::Value(feature_set_name(fs_)));
  obj.emplace("multi_node", json::Value(multi_node_));
  obj.emplace("model", model_->to_json());
  return json::Value(std::move(obj));
}

void PhaseLinearPredictor::load_model_json(const json::Value& model) {
  for (const char* key : {"phase", "feature_set", "multi_node", "model"}) {
    if (!model.has(key)) {
      throw ParseError("'" + name() + "' model payload lacks '" + key +
                       "'; refit the model");
    }
  }
  phase_ = phase_from_name(model.at("phase").as_string());
  fs_ = feature_set_from_name(model.at("feature_set").as_string());
  multi_node_ = model.at("multi_node").as_bool();
  model_ = LinearModel::from_json(model.at("model"));
}

// ---- LearnedPredictor ----------------------------------------------------

LearnedPredictor::LearnedPredictor(std::string name, MlpConfig config,
                                   bool parser_limited)
    : Predictor(std::move(name)),
      config_(std::move(config)),
      parser_limited_(parser_limited) {}

Vector LearnedPredictor::features(const RuntimeSample& s) {
  const double b = s.mini_batch();
  return {std::log(b * s.flops1), std::log(b * s.inputs1),
          std::log(b * s.outputs1), std::log(s.weights),
          std::log(s.layers), std::log(b)};
}

bool LearnedPredictor::can_parse(const std::string& model_name) const {
  // The concat-heavy Fire-module graph of squeezenet1_0 defeated DIPPM's
  // parser in the paper's comparison (Sec. 4.1.3).
  return !parser_limited_ || !starts_with(model_name, "squeezenet1_0");
}

void LearnedPredictor::do_fit(SampleStream& stream) {
  const std::vector<RuntimeSample> samples = materialize(stream);
  std::vector<const RuntimeSample*> usable;
  for (const auto& s : samples) {
    if (can_parse(s.model) && s.t_infer > 0.0) usable.push_back(&s);
  }
  CM_CHECK(usable.size() >= 8,
           name() + " predictor needs at least 8 samples");
  Matrix x(usable.size(), features(*usable.front()).size());
  Vector y(usable.size());
  for (std::size_t r = 0; r < usable.size(); ++r) {
    const Vector row = features(*usable[r]);
    for (std::size_t c = 0; c < row.size(); ++c) x(r, c) = row[c];
    y[r] = usable[r]->t_infer;
  }
  model_ = MlpPredictor::fit(x, y, config_);
}

double LearnedPredictor::do_predict(const RuntimeSample& sample) const {
  CM_CHECK(model_.has_value(), name() + " predictor has no fitted model");
  CM_CHECK(can_parse(sample.model),
           name() + " predictor cannot parse model '" + sample.model + "'");
  return model_->predict(features(sample));
}

json::Value LearnedPredictor::model_json() const {
  CM_CHECK(model_.has_value(), name() + " predictor has no fitted model");
  return model_->to_json();
}

void LearnedPredictor::load_model_json(const json::Value& model) {
  model_ = MlpPredictor::from_json(model);
}

// ---- PaleoAdapter ---------------------------------------------------------

PaleoAdapter::PaleoAdapter(PaleoDeviceSheet sheet)
    : Predictor("paleo"), sheet_(sheet) {
  CM_CHECK(sheet_.peak_flops > 0.0 && sheet_.mem_bandwidth > 0.0,
           "paleo datasheet needs positive peak FLOP/s and bandwidth");
  CM_CHECK(sheet_.platform_percent > 0.0 && sheet_.platform_percent <= 1.0,
           "paleo platform percent must be in (0, 1]");
  set_fitted();  // the model *is* the device datasheet
}

void PaleoAdapter::do_fit(SampleStream& /*samples*/) {
  // Fitting-free: the datasheet fully determines the prediction. Accepting
  // fit() keeps the adapter usable in the generic LOO harness.
}

double PaleoAdapter::do_predict(const RuntimeSample& sample) const {
  const double b = sample.mini_batch();
  const double pp = sheet_.platform_percent;
  const double bytes =
      4.0 * (b * sample.inputs1 + b * sample.outputs1 + sample.weights);
  const double compute = b * sample.flops1 / (sheet_.peak_flops * pp);
  const double memory = bytes / (sheet_.mem_bandwidth * pp);
  return std::max(compute, memory);
}

json::Value PaleoAdapter::model_json() const {
  json::Value::Object obj;
  obj.emplace("peak_flops", json::Value(sheet_.peak_flops));
  obj.emplace("mem_bandwidth", json::Value(sheet_.mem_bandwidth));
  obj.emplace("platform_percent", json::Value(sheet_.platform_percent));
  return json::Value(std::move(obj));
}

void PaleoAdapter::load_model_json(const json::Value& model) {
  sheet_.peak_flops = model.at("peak_flops").as_number();
  sheet_.mem_bandwidth = model.at("mem_bandwidth").as_number();
  sheet_.platform_percent = model.at("platform_percent").as_number();
}

}  // namespace convmeter
