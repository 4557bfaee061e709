// The concrete predictor families behind the polymorphic interface. Each
// family is one class with one fit path and one JSON payload: the linear
// families fit through the streaming accumulators (core/accumulate), the
// learned families train the MLP engine (baselines/mlp), and paleo is a
// datasheet roofline. The registry names every family.
#pragma once

#include <optional>
#include <string>

#include "baselines/mlp.hpp"
#include "baselines/paleo_like.hpp"
#include "core/convmeter.hpp"
#include "predict/predictor.hpp"

namespace convmeter {

/// "convmeter": the paper's full training-step model (Eq. 1/3 + the
/// 7-coefficient combined backward+gradient block). Predicts t_step.
class ConvMeterPredictor : public Predictor, public StreamingFitCapable {
 public:
  ConvMeterPredictor() : Predictor("convmeter") {}

  Phase target() const override { return Phase::kTrainStep; }

  std::unique_ptr<FitAccumulator> make_accumulator() const override;
  void fit_from_accumulator(const FitAccumulator& acc) override;

  /// The wrapped model (e.g. for ScalabilityAnalyzer or phase breakdowns);
  /// requires a fitted or loaded model.
  const ConvMeter& model() const;

 protected:
  void do_fit(SampleStream& samples) override;
  double do_predict(const RuntimeSample& sample) const override;
  json::Value model_json() const override;
  void load_model_json(const json::Value& model) override;

 private:
  std::optional<ConvMeter> model_;
};

/// "convmeter-fwd-only": the forward/inference model alone (Eq. 3 with the
/// combined FLOPs+Inputs+Outputs features). A phase override retargets the
/// same linear form at t_fwd, t_bwd, t_grad or t_bwd+t_grad, which is how
/// the training benches evaluate the per-phase models.
///
/// "flops-only" / "inputs-only" / "outputs-only": the paper's Fig. 2
/// single-metric inference baselines, the same class with a single-metric
/// feature set and the phase pinned to inference.
class PhaseLinearPredictor : public Predictor, public StreamingFitCapable {
 public:
  PhaseLinearPredictor(std::string name, Phase phase, FeatureSet fs);

  Phase target() const override { return phase_; }
  FeatureSet feature_set() const { return fs_; }

  std::unique_ptr<FitAccumulator> make_accumulator() const override;
  void fit_from_accumulator(const FitAccumulator& acc) override;

  /// The fitted linear form (the profiler dissects its coefficients into
  /// per-layer estimates); requires a fitted or loaded model.
  const LinearModel& model() const;

 protected:
  void do_fit(SampleStream& samples) override;
  double do_predict(const RuntimeSample& sample) const override;
  json::Value model_json() const override;
  void load_model_json(const json::Value& model) override;

 private:
  Phase phase_;
  FeatureSet fs_;
  bool multi_node_ = false;
  std::optional<LinearModel> model_;
};

/// "mlp" / "dippm": the learned MLP regressor on log-scaled graph features,
/// the stand-in for DIPPM (Sec. 4.1.3). Its iterative trainer needs the
/// data resident, so fit() materializes the stream (and the LOO harness
/// refits it per fold). With `parser_limited` the family also models the
/// DIPPM parser's limitation ("DIPPM was unable to parse the model graph of
/// squeezenet1_0"): such samples are dropped from the fit, and predict()
/// throws InvalidArgument for them (the LOO harness counts them skipped).
class LearnedPredictor : public Predictor {
 public:
  LearnedPredictor(std::string name, MlpConfig config, bool parser_limited);

  Phase target() const override { return Phase::kInference; }

  /// Log-scaled {b*F1, b*I1, b*O1, W, L, b}: latency spans orders of
  /// magnitude, and a learned regressor wants compressed dynamic range.
  static Vector features(const RuntimeSample& s);

  /// False when the limited parser cannot read `model_name`; always true
  /// without the limitation.
  bool can_parse(const std::string& model_name) const;

 protected:
  void do_fit(SampleStream& samples) override;
  double do_predict(const RuntimeSample& sample) const override;
  json::Value model_json() const override;
  void load_model_json(const json::Value& model) override;

 private:
  MlpConfig config_;
  bool parser_limited_;
  std::optional<MlpPredictor> model_;
};

/// "paleo": the fitting-free analytical roofline baseline, evaluated from
/// a sample's aggregate metrics:
///
///   t = max(flops / (peak * pp), bytes / (bandwidth * pp))
///
/// with bytes = 4 * (b*I1 + b*O1 + W). Note this aggregates before the
/// max, so it is coarser than PaleoLikePredictor's per-layer sum — the
/// graph-level class stays available when layer shapes are known. fit() is
/// accepted and ignored (the model is the device datasheet).
class PaleoAdapter : public Predictor {
 public:
  explicit PaleoAdapter(PaleoDeviceSheet sheet);

  Phase target() const override { return Phase::kInference; }

 protected:
  void do_fit(SampleStream& samples) override;
  double do_predict(const RuntimeSample& sample) const override;
  json::Value model_json() const override;
  void load_model_json(const json::Value& model) override;

 private:
  PaleoDeviceSheet sheet_;
};

}  // namespace convmeter
