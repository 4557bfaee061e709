// Predictor-layer tests: registry construction, the polymorphic
// fit/predict contract, versioned JSON model files (bit-identical round
// trips for every family), envelope validation, the generic LOO harness,
// and the fit/predict observability metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "predict/evaluate.hpp"
#include "predict/predictors.hpp"
#include "predict/registry.hpp"

namespace convmeter {
namespace {

/// Planted samples following the paper's exact functional forms, with
/// model names every family (including dippm's parser) accepts.
std::vector<RuntimeSample> planted_samples(bool multi_device) {
  std::vector<RuntimeSample> samples;
  int mdl = 0;
  for (const double f : {1e9, 3e9, 9e9, 27e9}) {
    for (const double batch : {1.0, 4.0, 8.0, 32.0, 64.0}) {
      for (const int devices :
           multi_device ? std::vector<int>{4, 8, 16} : std::vector<int>{1}) {
        RuntimeSample s;
        s.model = "net" + std::to_string(mdl % 4);
        s.device = "synthetic";
        s.image_size = 64;
        s.num_devices = devices;
        s.num_nodes = devices > 4 ? devices / 4 : 1;
        s.global_batch = static_cast<std::int64_t>(batch * devices);
        s.flops1 = f;
        s.inputs1 = f / 400.0;
        s.outputs1 = f / 320.0;
        s.weights = f / 80.0;
        s.layers = 40.0 + f / 1e9;
        s.t_fwd = batch * (1e-12 * f + 2e-9 * s.inputs1 + 3e-9 * s.outputs1) +
                  1e-4;
        s.t_infer = s.t_fwd;
        s.t_bwd = 2.0 * s.t_fwd;
        s.t_grad = 1e-5 * s.layers +
                   (devices > 1 ? 1e-10 * s.weights + 5e-5 * devices : 0.0);
        s.t_step = s.t_fwd + s.t_bwd + s.t_grad;
        samples.push_back(s);
      }
    }
    ++mdl;
  }
  return samples;
}

/// Samples over real zoo models, for the model-gated segmented family
/// (which derives its features from the zoo graphs, so synthetic "netN"
/// labels are rejected).
std::vector<RuntimeSample> zoo_samples() {
  std::vector<RuntimeSample> samples;
  int mdl = 0;
  for (const char* model :
       {"alexnet", "resnet18", "squeezenet1_1", "vit_ti_16"}) {
    ++mdl;
    for (const double batch : {1.0, 2.0, 4.0, 8.0}) {
      RuntimeSample s;
      s.model = model;
      s.device = "synthetic";
      s.image_size = 224;
      s.global_batch = static_cast<std::int64_t>(batch);
      s.t_infer = 1e-3 * mdl * batch + 1e-4;
      samples.push_back(s);
    }
  }
  return samples;
}

/// Cheap MLP hyperparameters so the learned families fit in milliseconds.
PredictorOptions fast_options() {
  PredictorOptions options;
  options.mlp.hidden = {8};
  options.mlp.epochs = 40;
  return options;
}

// ---- registry --------------------------------------------------------------

TEST(RegistryTest, AllPaperFamiliesRegistered) {
  const auto names = predictor_names();
  for (const char* expected :
       {"convmeter", "convmeter-fwd-only", "flops-only", "inputs-only",
        "outputs-only", "mlp", "paleo", "dippm", "segmented"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << expected;
  }
}

TEST(RegistryTest, EveryRegisteredNameConstructs) {
  for (const std::string& name : predictor_names()) {
    const auto p = make_predictor(name, fast_options());
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
  }
}

TEST(RegistryTest, UnknownNameListsRegisteredOnes) {
  try {
    make_predictor("no-such-family");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("convmeter"), std::string::npos);
  }
}

TEST(RegistryTest, EntriesAreSortedAndDescribed) {
  const auto entries = PredictorRegistry::instance().entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_FALSE(entries[i].description.empty()) << entries[i].name;
    if (i > 0) {
      EXPECT_LT(entries[i - 1].name, entries[i].name);
    }
  }
}

TEST(RegistryTest, PhaseOptionRetargetsLinearPredictor) {
  PredictorOptions options;
  options.phase = Phase::kBwdGrad;
  const auto p = make_predictor("convmeter-fwd-only", options);
  EXPECT_EQ(p->target(), Phase::kBwdGrad);
  EXPECT_EQ(make_predictor("convmeter-fwd-only")->target(), Phase::kInference);
  // The single-metric baselines stay pinned to inference.
  EXPECT_EQ(make_predictor("flops-only", options)->target(), Phase::kInference);
}

// ---- fit/predict contract --------------------------------------------------

TEST(PredictorTest, PredictBeforeFitThrows) {
  const auto p = make_predictor("convmeter-fwd-only");
  EXPECT_FALSE(p->fitted());
  EXPECT_THROW(p->predict(planted_samples(false).front()), InvalidArgument);
}

TEST(PredictorTest, PaleoIsBornFitted) {
  const auto p = make_predictor("paleo");
  EXPECT_TRUE(p->fitted());
  EXPECT_GT(p->predict(planted_samples(false).front()), 0.0);
}

TEST(PredictorTest, SaveBeforeFitThrows) {
  EXPECT_THROW(make_predictor("convmeter")->save_json(), InvalidArgument);
}

TEST(PredictorTest, DippmRejectsUnparsableModel) {
  auto samples = planted_samples(false);
  const auto p = make_predictor("dippm", fast_options());
  p->fit(samples);
  RuntimeSample bad = samples.front();
  bad.model = "squeezenet1_0";
  EXPECT_THROW(p->predict(bad), InvalidArgument);
}

// ---- versioned JSON model files --------------------------------------------

TEST(ModelFileTest, EveryFamilyRoundTripsBitIdentically) {
  for (const std::string& name : predictor_names()) {
    const auto samples =
        name == "segmented" ? zoo_samples() : planted_samples(false);
    const auto fitted = make_predictor(name, fast_options());
    fitted->fit(samples);
    const std::string text = fitted->save_json();
    const auto loaded = load_predictor_json(text, fast_options());
    ASSERT_EQ(loaded->name(), name);
    EXPECT_TRUE(loaded->fitted());
    for (const RuntimeSample& s : samples) {
      EXPECT_DOUBLE_EQ(fitted->predict(s), loaded->predict(s))
          << name << " on " << s.model;
    }
    // Saving the reloaded predictor reproduces the identical file.
    EXPECT_EQ(loaded->save_json(), text) << name;
  }
}

TEST(ModelFileTest, MultiNodeConvMeterTrainingRoundTrip) {
  const auto samples = planted_samples(true);
  const auto fitted = make_predictor("convmeter");
  fitted->fit(samples);
  const auto loaded = load_predictor_json(fitted->save_json());
  EXPECT_EQ(loaded->target(), Phase::kTrainStep);
  for (const RuntimeSample& s : samples) {
    EXPECT_DOUBLE_EQ(fitted->predict(s), loaded->predict(s));
  }
  // The wrapped model keeps its multi-node gradient block across the trip.
  const auto* cm = dynamic_cast<const ConvMeterPredictor*>(loaded.get());
  ASSERT_NE(cm, nullptr);
  EXPECT_TRUE(cm->model().has_training_model());
  EXPECT_TRUE(cm->model().multi_node());
}

TEST(ModelFileTest, EnvelopeCarriesFormatVersionAndName) {
  const auto p = make_predictor("flops-only");
  p->fit(planted_samples(false));
  const json::Value doc = json::parse(p->save_json());
  EXPECT_EQ(doc.at("format").as_string(), kModelFormatName);
  EXPECT_EQ(doc.at("version").as_number(), kModelFormatVersion);
  EXPECT_EQ(doc.at("predictor").as_string(), "flops-only");
  EXPECT_TRUE(doc.at("model").is_object());
}

TEST(ModelFileTest, MalformedTextRejected) {
  EXPECT_THROW(load_predictor_json("not json at all"), ParseError);
  EXPECT_THROW(load_predictor_json("[1, 2, 3]"), ParseError);
  EXPECT_THROW(load_predictor_json(R"({"format": "something-else",
                                       "version": 1})"),
               ParseError);
}

TEST(ModelFileTest, VersionMismatchRejectedWithClearMessage) {
  try {
    load_predictor_json(R"({"format": "convmeter-predictor", "version": 2,
                            "predictor": "convmeter", "model": {}})");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("version 1"), std::string::npos) << msg;
  }
}

TEST(ModelFileTest, UnregisteredPredictorNameRejected) {
  EXPECT_THROW(
      load_predictor_json(R"({"format": "convmeter-predictor", "version": 1,
                              "predictor": "hal9000", "model": {}})"),
      ParseError);
}

TEST(ModelFileTest, WrongFamilyRejectedOnDirectLoad) {
  const auto flops = make_predictor("flops-only");
  flops->fit(planted_samples(false));
  const auto other = make_predictor("convmeter");
  EXPECT_THROW(other->load_json(flops->save_json()), ParseError);
}

TEST(ModelFileTest, ConvMeterRequiresTrainingBlocks) {
  // A "convmeter" payload without the training-phase coefficient blocks
  // (e.g. repackaged from an inference-only fit) must be rejected.
  const ConvMeter inference_only =
      ConvMeter::fit_inference(planted_samples(false));
  json::Value::Object env;
  env.emplace("format", json::Value(std::string(kModelFormatName)));
  env.emplace("version",
              json::Value(static_cast<double>(kModelFormatVersion)));
  env.emplace("predictor", json::Value(std::string("convmeter")));
  env.emplace("model", inference_only.to_json());
  EXPECT_THROW(load_predictor_json(json::dump(json::Value(std::move(env)))),
               ParseError);
}

TEST(ModelFileTest, SingleMetricPayloadWithoutPhaseRejected) {
  // Single-metric baselines share the phase model's payload; the older
  // {"feature_set","model"} shape without "phase"/"multi_node" must fail
  // as a parse error, not load with a guessed phase.
  const std::string old_payload =
      R"({"format": "convmeter-predictor", "version": 1,
          "predictor": "flops-only",
          "model": {"feature_set": "flops", "model": [1e-12, 0.001]}})";
  EXPECT_THROW(load_predictor_json(old_payload), ParseError);
}

// ---- generic LOO harness ---------------------------------------------------

TEST(EvaluateLooTest, SkipsSamplesThePredictorRejects) {
  auto samples = planted_samples(false);
  // Rename one ConvNet to the family dippm's parser cannot read; its
  // held-out fold contributes only skips.
  std::size_t renamed = 0;
  for (auto& s : samples) {
    if (s.model == "net3") {
      s.model = "squeezenet1_0";
      ++renamed;
    }
  }
  ASSERT_GT(renamed, 0u);
  const LooResult r = evaluate_loo("dippm", samples, fast_options());
  EXPECT_EQ(r.skipped, renamed);
  EXPECT_EQ(r.pooled.count, samples.size() - renamed);
  for (const auto& g : r.per_group) {
    EXPECT_NE(g.group, "squeezenet1_0");
  }
}

TEST(EvaluateLooTest, FactoryOverloadMatchesRegistryOverload) {
  const auto samples = planted_samples(false);
  const LooResult by_name = evaluate_loo("convmeter-fwd-only", samples);
  // Hoisting the options outside the lambda sidesteps a GCC 12 spurious
  // -Wmaybe-uninitialized on the inlined default-argument temporary.
  const PredictorOptions options;
  const LooResult by_factory = evaluate_loo(
      [&options]() { return make_predictor("convmeter-fwd-only", options); },
      samples);
  EXPECT_DOUBLE_EQ(by_name.pooled.r2, by_factory.pooled.r2);
  EXPECT_DOUBLE_EQ(by_name.pooled.mape, by_factory.pooled.mape);
  EXPECT_EQ(by_name.per_group.size(), by_factory.per_group.size());
}

// ---- observability ---------------------------------------------------------

TEST(PredictorObsTest, FitAndPredictAreCounted) {
  auto& registry = obs::MetricsRegistry::instance();
  obs::set_enabled(true);
  const std::uint64_t fits_before = registry.counter("fit.calls").value();
  const std::uint64_t preds_before =
      registry.counter("predict.calls").value();
  const std::uint64_t fit_obs_before =
      registry.histogram("fit.seconds").count();

  const auto samples = planted_samples(false);
  const auto p = make_predictor("convmeter-fwd-only");
  p->fit(samples);
  p->predict(samples.front());
  p->predict(samples.back());

  EXPECT_EQ(registry.counter("fit.calls").value(), fits_before + 1);
  EXPECT_EQ(registry.counter("predict.calls").value(), preds_before + 2);
  EXPECT_EQ(registry.histogram("fit.seconds").count(), fit_obs_before + 1);
  obs::set_enabled(false);

  // Disabled: no further counting.
  p->predict(samples.front());
  EXPECT_EQ(registry.counter("predict.calls").value(), preds_before + 2);
}

}  // namespace
}  // namespace convmeter
