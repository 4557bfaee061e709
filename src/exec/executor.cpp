#include "exec/executor.hpp"

#include <atomic>
#include <cmath>
#include <optional>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "exec/kernels.hpp"
#include "tensor/alloc_tracker.hpp"
#include "graph/shape_inference.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile/counter_hook.hpp"
#include "obs/trace.hpp"

namespace convmeter {

namespace {

std::atomic<ExecPreflightFn> g_preflight{nullptr};

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// splitmix64 finalizer.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t node_weight_seed(std::uint64_t weight_seed, NodeId id) {
  return weight_seed ^ (kGolden * (static_cast<std::uint64_t>(id) + 1));
}

Tensor make_weight(ThreadPool& pool, const Shape& shape, std::uint64_t seed,
                   float scale) {
  Tensor t(shape, Tensor::kUninitialized);
  float* const out = t.data().data();
  const std::uint64_t key = mix64(seed);
  // u = k·2^-23 with k = top24 − 2^23. step = scale·2^-23 is exact, so
  // k·step rounds once, to the same float as scale·u.
  const float step = scale * 0x1p-23f;
  pool.parallel_for(
      t.data().size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t bits = mix64(key + kGolden * (i + 1));
          const auto k = static_cast<std::int32_t>(bits >> 40) - (1 << 23);
          out[i] = static_cast<float>(k) * step;
        }
      },
      kWeightGrain);
  return t;
}

void set_exec_preflight(ExecPreflightFn fn) {
  g_preflight.store(fn, std::memory_order_relaxed);
}

ExecPreflightFn exec_preflight() {
  return g_preflight.load(std::memory_order_relaxed);
}

std::vector<std::optional<ActKind>> plan_fused_activations(const Graph& graph) {
  std::vector<std::size_t> consumers(graph.size(), 0);
  for (const auto& n : graph.nodes()) {
    for (const NodeId input : n.inputs) {
      ++consumers[static_cast<std::size_t>(input)];
    }
  }
  std::vector<std::optional<ActKind>> fused(graph.size());
  for (const auto& n : graph.nodes()) {
    if (n.kind != OpKind::kActivation || n.inputs.size() != 1) continue;
    const auto src = static_cast<std::size_t>(n.inputs[0]);
    // Both GEMM-backed producers fold the activation into their writeback
    // epilogue (conv via im2col, linear directly).
    if (graph.nodes()[src].kind != OpKind::kConv2d &&
        graph.nodes()[src].kind != OpKind::kLinear) {
      continue;
    }
    if (consumers[src] != 1) continue;
    if (n.inputs[0] == graph.output_id()) continue;
    fused[src] = n.as<ActivationAttrs>().kind;
  }
  return fused;
}

Executor::Executor(std::size_t num_threads) : pool_(num_threads) {}

ExecutionResult Executor::run(const Graph& graph, const Tensor& input,
                              std::uint64_t weight_seed) {
  CM_TRACE_SPAN("executor.run", "exec");
  // Pre-flight before validate(): an installed verifier reports richer,
  // multi-finding diagnostics than validate()'s first-violation throw.
  if (const ExecPreflightFn preflight = exec_preflight()) {
    preflight(graph, input.shape());
  }
  graph.validate();
  const ShapeMap shapes = infer_shapes(graph, input.shape());
  const std::vector<std::optional<ActKind>> fused = plan_fused_activations(graph);
  std::vector<Tensor> outputs(graph.size());
  ExecutionResult result;
  result.layers.reserve(graph.size());

  // Free-after-last-consumer schedule: node `src`'s output buffer is
  // released as soon as the last node consuming it has run, so forward
  // peak memory follows the static liveness plan (analysis/memplan.hpp)
  // instead of accumulating every activation. Nodes nobody consumes (the
  // sink) keep last_use == -1 and are never freed.
  std::vector<NodeId> last_use(graph.size(), -1);
  for (const auto& n : graph.nodes()) {
    for (const NodeId src : n.inputs) {
      last_use[static_cast<std::size_t>(src)] = n.id;
    }
  }

  const auto start_all = Clock::now();
  for (const auto& n : graph.nodes()) {
    const auto in = [&](std::size_t i) -> const Tensor& {
      return outputs[static_cast<std::size_t>(n.inputs.at(i))];
    };
    const std::uint64_t seed = node_weight_seed(weight_seed, n.id);
    std::optional<obs::TraceSpan> layer_span;
    if (obs::enabled()) {
      layer_span.emplace(op_kind_name(n.kind) + "/" + n.name, "layer");
    }
    // Hardware counter bracket for the profiler; a single relaxed load
    // when no CounterCollector is installed (the common case).
    const obs::LayerCounterScope counter_scope(n.id);
    const auto start = Clock::now();
    Tensor out;
    switch (n.kind) {
      case OpKind::kInput:
        out = input;
        break;
      case OpKind::kConv2d: {
        const auto& a = n.as<Conv2dAttrs>();
        const double fan_in =
            static_cast<double>(a.in_channels / a.groups * a.kernel_h *
                                a.kernel_w);
        const float scale = static_cast<float>(1.0 / std::sqrt(fan_in));
        const Tensor weight = make_weight(
            pool_,
            Shape({a.out_channels, a.in_channels / a.groups, a.kernel_h,
                   a.kernel_w}),
            seed, scale);
        const Tensor bias =
            a.bias
                ? make_weight(pool_, Shape{a.out_channels}, seed + 1, scale)
                : Tensor();
        out = conv2d_forward(pool_, in(0), weight, bias, a,
                             fused[static_cast<std::size_t>(n.id)]);
        break;
      }
      case OpKind::kBatchNorm2d: {
        const auto c = n.as<BatchNorm2dAttrs>().channels;
        Tensor gamma(Shape{c}, 1.0f);
        Tensor beta(Shape{c}, 0.0f);
        Tensor mean(Shape{c}, 0.0f);
        Tensor var(Shape{c}, 1.0f);
        out = batch_norm2d(pool_, in(0), gamma, beta, mean, var);
        break;
      }
      case OpKind::kActivation: {
        const auto src = static_cast<std::size_t>(n.inputs.at(0));
        if (fused[src].has_value()) {
          // The activation already ran inside the producer's GEMM epilogue;
          // this node just takes ownership of the fused result.
          out = std::move(outputs[src]);
        } else {
          out = activation(pool_, in(0), n.as<ActivationAttrs>().kind);
        }
        break;
      }
      case OpKind::kMaxPool2d:
        out = max_pool2d(pool_, in(0), n.as<Pool2dAttrs>());
        break;
      case OpKind::kAvgPool2d:
        out = avg_pool2d(pool_, in(0), n.as<Pool2dAttrs>());
        break;
      case OpKind::kAdaptiveAvgPool2d: {
        const auto& a = n.as<AdaptiveAvgPool2dAttrs>();
        out = adaptive_avg_pool2d(pool_, in(0), a.out_h, a.out_w);
        break;
      }
      case OpKind::kLinear: {
        const auto& a = n.as<LinearAttrs>();
        const float scale =
            static_cast<float>(1.0 / std::sqrt(static_cast<double>(a.in_features)));
        const Tensor weight = make_weight(
            pool_, Shape({a.out_features, a.in_features}), seed, scale);
        const Tensor bias =
            a.bias
                ? make_weight(pool_, Shape{a.out_features}, seed + 1, scale)
                : Tensor();
        out = linear(pool_, in(0), weight, bias, a,
                     fused[static_cast<std::size_t>(n.id)]);
        break;
      }
      case OpKind::kFlatten:
        out = flatten(in(0));
        break;
      case OpKind::kAdd:
        out = add(in(0), in(1));
        break;
      case OpKind::kMultiply:
        out = multiply(in(0), in(1));
        break;
      case OpKind::kConcat: {
        std::vector<Tensor> ins;
        ins.reserve(n.inputs.size());
        for (std::size_t i = 0; i < n.inputs.size(); ++i) ins.push_back(in(i));
        out = concat(ins);
        break;
      }
      case OpKind::kDropout:
        out = in(0);  // inference mode: identity
        break;
      case OpKind::kSliceChannels: {
        const auto& a = n.as<SliceChannelsAttrs>();
        out = slice_channels(in(0), a.begin, a.end);
        break;
      }
      case OpKind::kChannelShuffle:
        out = channel_shuffle(in(0), n.as<ChannelShuffleAttrs>().groups);
        break;
      case OpKind::kToTokens: {
        const auto& a = n.as<ToTokensAttrs>();
        Tensor cls;
        if (a.cls_token) {
          const std::int64_t c = in(0).shape().channels();
          const float scale = static_cast<float>(
              1.0 / std::sqrt(static_cast<double>(c)));
          cls = make_weight(pool_, Shape{c}, seed, scale);
        }
        out = to_tokens(pool_, in(0), cls, a);
        break;
      }
      case OpKind::kLayerNorm: {
        const auto d = n.as<LayerNormAttrs>().dim;
        Tensor gamma(Shape{d}, 1.0f);
        Tensor beta(Shape{d}, 0.0f);
        out = layer_norm(pool_, in(0), gamma, beta, n.as<LayerNormAttrs>());
        break;
      }
      case OpKind::kSelfAttention: {
        const auto& a = n.as<SelfAttentionAttrs>();
        const float scale = static_cast<float>(
            1.0 / std::sqrt(static_cast<double>(a.embed_dim)));
        const Tensor in_proj_w = make_weight(
            pool_, Shape({3 * a.embed_dim, a.embed_dim}), seed, scale);
        const Tensor in_proj_b =
            make_weight(pool_, Shape{3 * a.embed_dim}, seed + 1, scale);
        const Tensor out_proj_w = make_weight(
            pool_, Shape({a.embed_dim, a.embed_dim}), seed + 2, scale);
        const Tensor out_proj_b =
            make_weight(pool_, Shape{a.embed_dim}, seed + 3, scale);
        out = self_attention(pool_, in(0), in_proj_w, in_proj_b, out_proj_w,
                             out_proj_b, a);
        break;
      }
      case OpKind::kSelectToken:
        out = select_token(in(0), n.as<SelectTokenAttrs>().index);
        break;
      case OpKind::kTransposeTokens:
        out = transpose_tokens(pool_, in(0));
        break;
    }
    const auto end = Clock::now();
    layer_span.reset();
    CM_CHECK(out.shape() == shapes[static_cast<std::size_t>(n.id)],
             "executor produced an unexpected shape at node '" + n.name + "'");
    outputs[static_cast<std::size_t>(n.id)] = std::move(out);
    for (const NodeId src : n.inputs) {
      if (last_use[static_cast<std::size_t>(src)] == n.id) {
        outputs[static_cast<std::size_t>(src)] = Tensor();
      }
    }
    LayerTiming timing{n.id, elapsed_seconds(start, end)};
    if (memtrack::enabled()) {
      timing.mem_live_bytes = memtrack::current_bytes();
      timing.mem_peak_bytes = memtrack::peak_bytes();
    }
    result.layers.push_back(timing);
  }
  const auto end_all = Clock::now();

  result.total_seconds = elapsed_seconds(start_all, end_all);
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    registry.counter("executor.runs").add();
    registry.counter("executor.layers").add(result.layers.size());
    registry.histogram("executor.run_seconds").observe(result.total_seconds);
    auto& layer_hist = registry.histogram("executor.layer_seconds");
    for (const LayerTiming& layer : result.layers) {
      layer_hist.observe(layer.seconds);
    }
  }
  result.output = std::move(outputs[static_cast<std::size_t>(graph.output_id())]);
  return result;
}

ExecutionResult Executor::run_random(const Graph& graph,
                                     const Shape& input_shape,
                                     std::uint64_t seed) {
  Tensor input(input_shape);
  input.fill_random(seed);
  return run(graph, input, seed);
}

}  // namespace convmeter
