// Graph executor: runs a real forward pass of a ConvNet graph on the CPU.
//
// Weights are generated deterministically per node (the library models
// performance, not accuracy — values only need to be realistic, not
// trained). Each weight tensor is a per-node transient: it is generated
// inside the node's timed layer, on the executor's own pool, and freed when
// the node finishes. Generation is counter-based (element i is a pure
// function of the tensor seed and i), so it parallelizes without changing a
// single bit at any thread count. The executor doubles as a wall-clock
// measurement source: it records per-layer and total times, giving the
// project a genuinely *runnable* benchmarking pipeline next to the device
// simulator.
#pragma once

#include <chrono>
#include <optional>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.hpp"
#include "graph/graph.hpp"
#include "tensor/tensor.hpp"

namespace convmeter {

/// Conv -> Activation fusion plan: entry `id` holds the activation folded
/// into conv node `id`'s GEMM writeback epilogue, or nullopt. A conv is
/// fused when its output feeds exactly one node — an Activation — and it is
/// not the graph output; the activation node then becomes a move of the
/// conv's tensor. Exported so the analysis layer's fusion-legality audit
/// can cross-check the exact plan the executor will apply.
std::vector<std::optional<ActKind>> plan_fused_activations(const Graph& graph);

/// Seed of node `id`'s weight tensors in a run seeded with `weight_seed`:
/// weight_seed ^ φ·(id+1), φ = 0x9e3779b97f4a7c15. A node with several
/// tensors uses seed, seed+1, ... (bias, projections) in a fixed order.
std::uint64_t node_weight_seed(std::uint64_t weight_seed, NodeId id);

/// Elements per make_weight chunk: bias-sized tensors run inline on the
/// caller, conv/linear weight tensors split across the pool.
inline constexpr std::size_t kWeightGrain = 16384;

/// Deterministic weight tensor of `shape`: element i is
/// scale · u(mix64(mix64(seed) + φ·(i+1))), with mix64 the splitmix64
/// finalizer and u mapping the top 24 bits onto the exactly representable
/// floats k·2^-23 in [-1, 1). Values therefore lie in [-scale, scale), and
/// element i does not depend on the tensor's length or on how `pool`
/// splits the range: outputs are bit-identical at any thread count.
Tensor make_weight(ThreadPool& pool, const Shape& shape, std::uint64_t seed,
                   float scale);

/// Optional process-wide pre-flight hook, run at the top of every
/// Executor::run before anything executes. The analysis layer installs its
/// graph verifier here (analysis::install_executor_preflight) so debug
/// builds and CONVMETER_PREFLIGHT=1 runs reject hazardous graphs with
/// diagnostics instead of crashing mid-kernel. A null hook (the default)
/// costs one relaxed atomic load.
using ExecPreflightFn = void (*)(const Graph& graph, const Shape& input_shape);
void set_exec_preflight(ExecPreflightFn fn);
ExecPreflightFn exec_preflight();

/// Wall-clock timing of one node during a forward pass. The memory fields
/// are filled only while memtrack accounting is enabled (zero otherwise):
/// `mem_live_bytes` is the tracked tensor bytes live after the node ran,
/// `mem_peak_bytes` the process-wide tracked peak up to and including it.
struct LayerTiming {
  NodeId node = -1;
  double seconds = 0.0;
  std::uint64_t mem_live_bytes = 0;
  std::uint64_t mem_peak_bytes = 0;
};

/// Result of Executor::run.
struct ExecutionResult {
  Tensor output;                    ///< the sink node's output
  double total_seconds = 0.0;       ///< wall-clock forward time
  std::vector<LayerTiming> layers;  ///< per-node times, topological order
};

/// Executes graphs with real kernels (src/exec/kernels.hpp).
class Executor {
 public:
  /// `num_threads` == 0 selects hardware concurrency.
  explicit Executor(std::size_t num_threads = 0);

  /// Runs a forward pass on `input`. Weights are derived from `weight_seed`
  /// so repeated runs (and tests) are deterministic.
  ExecutionResult run(const Graph& graph, const Tensor& input,
                      std::uint64_t weight_seed = 0xc0ffee);

  /// Convenience: random input of the given shape.
  ExecutionResult run_random(const Graph& graph, const Shape& input_shape,
                             std::uint64_t seed = 0xc0ffee);

 private:
  ThreadPool pool_;
};

}  // namespace convmeter
