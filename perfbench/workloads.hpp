// The benchmark's workloads and the metric tables they report.
//
//   infer_real   Executor forward passes (resnet18, vit_s_16)
//   train_real   Trainer steps (resnet18, Adam)
//
// An untraced run reports the end-to-end metrics of the named workload. A
// traced run (obs tracing and memtrack on) reports every per-layer metric:
// it runs the named workload untraced and traced to price the tracing, then
// the layer probes of the executor, the trainer and the predictor pipeline
// (sim campaigns -> shards -> fits -> LOO -> queries), so each layer number
// is available next to every workload. See perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Executor / trainer pool size and campaign worker count.
inline constexpr int kPoolThreads = 4;
inline constexpr int kCampaignJobs = 4;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< directory for the probe's shards
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<std::string>& workload_names();
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

struct RunOutcome {
  Checks checks;
  std::vector<Metric> metrics;  ///< in table order
  std::size_t ops = 0;          ///< timed operations behind the metrics
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunOutcome run_workload(const RunConfig& config);

/// Digest of the inputs a workload generates from `seed` (input tensors,
/// labels, sweep seeds and query batches): equal seeds give equal digests.
std::uint64_t input_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
