#include "predict/registry.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "predict/predictors.hpp"
#include "predict/segmented.hpp"

namespace convmeter {

PredictorRegistry& PredictorRegistry::instance() {
  static PredictorRegistry registry;
  return registry;
}

PredictorRegistry::PredictorRegistry() {
  const auto phase_linear = [](const char* name, Phase default_phase) {
    return [name, default_phase](const PredictorOptions& o) {
      return std::make_unique<PhaseLinearPredictor>(
          name, o.phase.value_or(default_phase), FeatureSet::kCombined);
    };
  };
  // The single-metric baselines stay pinned to inference: the phase
  // option does not apply to them.
  const auto single_metric = [](const char* name, FeatureSet fs) {
    return [name, fs](const PredictorOptions&) {
      return std::make_unique<PhaseLinearPredictor>(name, Phase::kInference,
                                                    fs);
    };
  };
  const auto learned = [](const char* name, bool parser_limited) {
    return [name, parser_limited](const PredictorOptions& o) {
      return std::make_unique<LearnedPredictor>(name, o.mlp, parser_limited);
    };
  };
  add({"convmeter",
       "full training-step model: T_step = T_fwd + T_bwd_grad (Eq. 1/3)",
       [](const PredictorOptions&) {
         return std::make_unique<ConvMeterPredictor>();
       }});
  add({"convmeter-fwd-only",
       "forward/inference linear model on FLOPs+Inputs+Outputs (Eq. 3)",
       phase_linear("convmeter-fwd-only", Phase::kInference)});
  add({"flops-only", "single-metric linear baseline on FLOPs (Fig. 2)",
       single_metric("flops-only", FeatureSet::kFlopsOnly)});
  add({"inputs-only", "single-metric linear baseline on conv inputs (Fig. 2)",
       single_metric("inputs-only", FeatureSet::kInputsOnly)});
  add({"outputs-only",
       "single-metric linear baseline on conv outputs (Fig. 2)",
       single_metric("outputs-only", FeatureSet::kOutputsOnly)});
  add({"segmented",
       "per-op-family linear model (conv/gemm/attention/norm/elementwise "
       "FLOPs+IO, zoo models only)",
       [](const PredictorOptions&) {
         return std::make_unique<SegmentedPredictor>();
       }});
  add({"mlp", "learned MLP regressor on log-scaled graph features",
       learned("mlp", /*parser_limited=*/false)});
  add({"dippm",
       "DIPPM-like learned baseline (rejects models its parser cannot read)",
       learned("dippm", /*parser_limited=*/true)});
  add({"paleo",
       "fitting-free analytical roofline from device datasheet numbers",
       [](const PredictorOptions& o) {
         return std::make_unique<PaleoAdapter>(o.paleo);
       }});
}

void PredictorRegistry::add(PredictorEntry entry) {
  CM_CHECK(!entry.name.empty() && entry.make != nullptr,
           "predictor registry entry needs a name and a factory");
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const PredictorEntry& e) { return e.name == entry.name; });
  if (it != entries_.end()) {
    *it = std::move(entry);
  } else {
    entries_.push_back(std::move(entry));
  }
}

bool PredictorRegistry::contains(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const PredictorEntry& e) { return e.name == name; });
}

std::unique_ptr<Predictor> PredictorRegistry::make(
    const std::string& name, const PredictorOptions& options) const {
  for (const PredictorEntry& e : entries_) {
    if (e.name == name) return e.make(options);
  }
  throw InvalidArgument("unknown predictor '" + name + "'; registered: " +
                        join(predictor_names(), ", "));
}

std::vector<PredictorEntry> PredictorRegistry::entries() const {
  std::vector<PredictorEntry> out = entries_;
  std::sort(out.begin(), out.end(),
            [](const PredictorEntry& a, const PredictorEntry& b) {
              return a.name < b.name;
            });
  return out;
}

std::unique_ptr<Predictor> make_predictor(const std::string& name,
                                          const PredictorOptions& options) {
  return PredictorRegistry::instance().make(name, options);
}

std::vector<std::string> predictor_names() {
  std::vector<std::string> names;
  for (const PredictorEntry& e : PredictorRegistry::instance().entries()) {
    names.push_back(e.name);
  }
  return names;
}

std::unique_ptr<Predictor> load_predictor_json(
    const std::string& text, const PredictorOptions& options) {
  const json::Value doc = json::parse(text);
  const std::string name = model_file_predictor_name(doc);
  if (!PredictorRegistry::instance().contains(name)) {
    throw ParseError("model file names unregistered predictor '" + name +
                     "'");
  }
  std::unique_ptr<Predictor> p = make_predictor(name, options);
  p->load_document(doc);
  return p;
}

std::unique_ptr<Predictor> load_predictor_file(
    const std::string& path, const PredictorOptions& options) {
  std::ifstream in(path);
  CM_CHECK(in.good(), "cannot open model file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return load_predictor_json(text.str(), options);
}

}  // namespace convmeter
