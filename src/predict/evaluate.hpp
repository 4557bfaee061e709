// Generic leave-one-ConvNet-out evaluation, the paper's protocol for every
// error table: "we develop a performance model for each ConvNet, excluding
// its own data from the training set" (Sec. 4, Benchmarks).
//
// Works for any registered predictor family: per held-out ConvNet a fresh
// predictor is constructed and fitted on the remaining ConvNets' samples,
// then its predictions for the held-out samples are compared against the
// family's target phase. This is the repo's only LOO implementation;
// benches and the CLI score every family through it.
//
// Execution is streaming and group-aware for StreamingFitCapable families:
// pass one folds every sample into a global accumulator plus one
// accumulator per ConvNet; each fold's model is then solved from the exact
// complement (global minus group) — O(G) solves over one pass of I/O
// instead of O(G) refits over G passes — and pass two scores every sample
// against its group's fold model. Families without accumulator support
// (mlp, dippm, paleo) fall back to materializing the stream and refitting
// per fold. Either way the evaluation runs off a SampleStream, so a
// million-sample shard store is evaluated without ever being resident.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collect/sample_stream.hpp"
#include "predict/registry.hpp"
#include "regress/error_metrics.hpp"

namespace convmeter {

/// Scores of one held-out ConvNet.
struct GroupEvaluation {
  std::string group;
  ErrorReport errors;
  std::vector<double> predicted;  ///< per held-out sample
  std::vector<double> measured;
};

/// Result of a full leave-one-ConvNet-out pass.
struct LooResult {
  std::vector<GroupEvaluation> per_group;  ///< sorted by group name
  ErrorReport pooled;  ///< errors over all held-out predictions pooled
  std::size_t skipped = 0;  ///< held-out samples the predictor rejected
};

/// Knobs of the streaming LOO pass.
struct LooOptions {
  /// Record per-sample (predicted, measured) pairs in each GroupEvaluation.
  /// Disable for very large sample sets: error reports are then built from
  /// streaming ErrorAccumulators and the point vectors stay empty.
  bool collect_points = true;
};

/// LOO evaluation with a caller-supplied factory (one fresh predictor per
/// fold). Held-out samples the predictor rejects with InvalidArgument —
/// e.g. dippm's unparsable model families — are counted in
/// LooResult::skipped instead of aborting the pass. Groups with fewer than
/// 2 scored samples contribute to the pooled errors only.
LooResult evaluate_loo(
    const std::function<std::unique_ptr<Predictor>()>& factory,
    SampleStream& samples, const LooOptions& loo_options = {});

/// In-memory adapter over the streaming evaluation.
LooResult evaluate_loo(
    const std::function<std::unique_ptr<Predictor>()>& factory,
    const std::vector<RuntimeSample>& samples);

/// LOO evaluation of the registry family `predictor_name` (constructed
/// with `options` for every fold).
LooResult evaluate_loo(const std::string& predictor_name,
                       SampleStream& samples,
                       const PredictorOptions& options = {},
                       const LooOptions& loo_options = {});
LooResult evaluate_loo(const std::string& predictor_name,
                       const std::vector<RuntimeSample>& samples,
                       const PredictorOptions& options = {});

}  // namespace convmeter
