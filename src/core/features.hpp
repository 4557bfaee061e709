// Feature-vector construction for the ConvMeter performance models.
//
// Eq. 3 of the paper factorizes the batch out of the metrics: features are
// computed from the batch-1 metrics stored in each RuntimeSample times the
// per-device mini-batch b = B/N, plus the batch-independent L, W, N terms
// for the gradient-update model.
#pragma once

#include <string>
#include <vector>

#include "collect/sample.hpp"
#include "linalg/matrix.hpp"

namespace convmeter {

/// Which metrics feed the forward-pass model. The paper's Fig. 2 compares
/// the single-metric baselines against the combined model.
enum class FeatureSet {
  kFlopsOnly,
  kInputsOnly,
  kOutputsOnly,
  kCombined,  ///< FLOPs + Inputs + Outputs (Eq. 2) — the ConvMeter model
};

/// Which measured phase a model is fitted against.
enum class Phase {
  kInference,  ///< t_infer
  kForward,    ///< t_fwd
  kBackward,   ///< t_bwd
  kGradUpdate, ///< t_grad
  kBwdGrad,    ///< t_bwd + t_grad (the overlapped phases, Sec. 3.3)
  kTrainStep,  ///< t_step
};

/// Stable names for serialization and reports.
std::string feature_set_name(FeatureSet fs);
std::string phase_name(Phase phase);

/// Inverses of the stable names; throw InvalidArgument for unknown names.
FeatureSet feature_set_from_name(const std::string& name);
Phase phase_from_name(const std::string& name);

/// Measured target value of `phase` for one sample.
double target_value(const RuntimeSample& s, Phase phase);

/// Forward-pass features (Eq. 3): {b*F1, b*I1, b*O1, 1} for kCombined, or
/// {b*X1, 1} for a single-metric baseline.
Vector forward_features(const RuntimeSample& s, FeatureSet fs);

/// Gradient-update features: {L} when every sample is single-device,
/// {L, W, N} otherwise (Sec. 3.3).
Vector grad_features(const RuntimeSample& s, bool multi_node);

/// Combined backward + gradient-update features, the 7-coefficient model:
/// {b*F1, b*I1, b*O1, 1, L, W, N}.
Vector bwd_grad_features(const RuntimeSample& s);

/// Feature row for one sample under `phase`/`fs`: forward features for the
/// forward-shaped phases, gradient features (widened when `multi_node`) for
/// kGradUpdate, and the 7-wide combined features for kBwdGrad/kTrainStep.
Vector phase_features(const RuntimeSample& s, Phase phase, FeatureSet fs,
                      bool multi_node);

}  // namespace convmeter
