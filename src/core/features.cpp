#include "core/features.hpp"

#include "common/error.hpp"

namespace convmeter {

std::string feature_set_name(FeatureSet fs) {
  switch (fs) {
    case FeatureSet::kFlopsOnly: return "flops";
    case FeatureSet::kInputsOnly: return "inputs";
    case FeatureSet::kOutputsOnly: return "outputs";
    case FeatureSet::kCombined: return "combined";
  }
  throw InvalidArgument("unknown FeatureSet");
}

std::string phase_name(Phase phase) {
  switch (phase) {
    case Phase::kInference: return "inference";
    case Phase::kForward: return "forward";
    case Phase::kBackward: return "backward";
    case Phase::kGradUpdate: return "grad_update";
    case Phase::kBwdGrad: return "bwd_grad";
    case Phase::kTrainStep: return "train_step";
  }
  throw InvalidArgument("unknown Phase");
}

FeatureSet feature_set_from_name(const std::string& name) {
  for (const FeatureSet fs :
       {FeatureSet::kFlopsOnly, FeatureSet::kInputsOnly,
        FeatureSet::kOutputsOnly, FeatureSet::kCombined}) {
    if (feature_set_name(fs) == name) return fs;
  }
  throw InvalidArgument("unknown feature set name: " + name);
}

Phase phase_from_name(const std::string& name) {
  for (const Phase p : {Phase::kInference, Phase::kForward, Phase::kBackward,
                        Phase::kGradUpdate, Phase::kBwdGrad,
                        Phase::kTrainStep}) {
    if (phase_name(p) == name) return p;
  }
  throw InvalidArgument("unknown phase name: " + name);
}

double target_value(const RuntimeSample& s, Phase phase) {
  switch (phase) {
    case Phase::kInference: return s.t_infer;
    case Phase::kForward: return s.t_fwd;
    case Phase::kBackward: return s.t_bwd;
    case Phase::kGradUpdate: return s.t_grad;
    case Phase::kBwdGrad: return s.t_bwd + s.t_grad;
    case Phase::kTrainStep: return s.t_step;
  }
  throw InvalidArgument("unknown Phase");
}

Vector forward_features(const RuntimeSample& s, FeatureSet fs) {
  const double b = s.mini_batch();
  switch (fs) {
    case FeatureSet::kFlopsOnly: return {b * s.flops1, 1.0};
    case FeatureSet::kInputsOnly: return {b * s.inputs1, 1.0};
    case FeatureSet::kOutputsOnly: return {b * s.outputs1, 1.0};
    case FeatureSet::kCombined:
      return {b * s.flops1, b * s.inputs1, b * s.outputs1, 1.0};
  }
  throw InvalidArgument("unknown FeatureSet");
}

Vector grad_features(const RuntimeSample& s, bool multi_node) {
  if (!multi_node) return {s.layers};
  return {s.layers, s.weights, static_cast<double>(s.num_devices)};
}

Vector bwd_grad_features(const RuntimeSample& s) {
  const double b = s.mini_batch();
  return {b * s.flops1, b * s.inputs1,  b * s.outputs1, 1.0,
          s.layers,     s.weights,      static_cast<double>(s.num_devices)};
}

Vector phase_features(const RuntimeSample& s, Phase phase, FeatureSet fs,
                      bool multi_node) {
  switch (phase) {
    case Phase::kInference:
    case Phase::kForward:
    case Phase::kBackward:
      return forward_features(s, fs);
    case Phase::kGradUpdate:
      return grad_features(s, multi_node);
    case Phase::kBwdGrad:
    case Phase::kTrainStep:
      return bwd_grad_features(s);
  }
  throw InvalidArgument("unknown Phase");
}

}  // namespace convmeter
