#include "exec/trainer.hpp"

#include <cmath>
#include <optional>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/backward.hpp"
#include "exec/executor.hpp"
#include "exec/kernels.hpp"
#include "tensor/alloc_tracker.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace convmeter {

namespace {

Tensor he_uniform(const Shape& shape, double fan_in, Rng& rng) {
  Tensor t(shape);
  const float bound = static_cast<float>(std::sqrt(6.0 / fan_in));
  for (float& v : t.data()) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
  return t;
}

}  // namespace

double softmax_cross_entropy(const Tensor& logits,
                             const std::vector<int>& labels,
                             Tensor* grad_logits) {
  const auto& s = logits.shape();
  CM_CHECK(s.rank() == 2, "loss expects rank-2 logits");
  const auto batch = static_cast<std::size_t>(s.dim(0));
  const auto classes = static_cast<std::size_t>(s.dim(1));
  CM_CHECK(labels.size() == batch, "one label per batch element required");

  if (grad_logits != nullptr) *grad_logits = Tensor(s);
  double total = 0.0;
  for (std::size_t b = 0; b < batch; ++b) {
    CM_CHECK(labels[b] >= 0 && static_cast<std::size_t>(labels[b]) < classes,
             "label out of range");
    const auto row = logits.data().subspan(b * classes, classes);
    float mx = row[0];
    for (const float v : row) mx = std::max(mx, v);
    double denom = 0.0;
    for (const float v : row) denom += std::exp(static_cast<double>(v - mx));
    const double log_denom = std::log(denom);
    const auto label = static_cast<std::size_t>(labels[b]);
    total += log_denom - (row[label] - mx);

    if (grad_logits != nullptr) {
      for (std::size_t c = 0; c < classes; ++c) {
        const double p = std::exp(static_cast<double>(row[c] - mx)) / denom;
        grad_logits->at(b * classes + c) = static_cast<float>(
            (p - (c == label ? 1.0 : 0.0)) / static_cast<double>(batch));
      }
    }
  }
  return total / static_cast<double>(batch);
}

Trainer::Trainer(Graph graph, TrainerConfig config)
    : graph_(std::move(graph)),
      config_(config),
      pool_(config.num_threads) {
  graph_.validate();
  Rng rng(config_.weight_seed);
  for (const auto& n : graph_.nodes()) {
    ParamState state;
    switch (n.kind) {
      case OpKind::kConv2d: {
        const auto& a = n.as<Conv2dAttrs>();
        const double fan_in = static_cast<double>(
            a.in_channels / a.groups * a.kernel_h * a.kernel_w);
        state.values.push_back(he_uniform(
            Shape({a.out_channels, a.in_channels / a.groups, a.kernel_h,
                   a.kernel_w}),
            fan_in, rng));
        if (a.bias) {
          state.values.push_back(Tensor(Shape{a.out_channels}, 0.0f));
        }
        break;
      }
      case OpKind::kLinear: {
        const auto& a = n.as<LinearAttrs>();
        state.values.push_back(
            he_uniform(Shape({a.out_features, a.in_features}),
                       static_cast<double>(a.in_features), rng));
        if (a.bias) {
          state.values.push_back(Tensor(Shape{a.out_features}, 0.0f));
        }
        break;
      }
      case OpKind::kBatchNorm2d: {
        const auto c = n.as<BatchNorm2dAttrs>().channels;
        state.values.push_back(Tensor(Shape{c}, 1.0f));  // gamma
        state.values.push_back(Tensor(Shape{c}, 0.0f));  // beta
        break;
      }
      case OpKind::kLayerNorm: {
        const auto d = n.as<LayerNormAttrs>().dim;
        state.values.push_back(Tensor(Shape{d}, 1.0f));  // gamma
        state.values.push_back(Tensor(Shape{d}, 0.0f));  // beta
        break;
      }
      case OpKind::kSelfAttention: {
        const auto& a = n.as<SelfAttentionAttrs>();
        const auto fan = static_cast<double>(a.embed_dim);
        state.values.push_back(
            he_uniform(Shape({3 * a.embed_dim, a.embed_dim}), fan, rng));
        state.values.push_back(Tensor(Shape{3 * a.embed_dim}, 0.0f));
        state.values.push_back(
            he_uniform(Shape({a.embed_dim, a.embed_dim}), fan, rng));
        state.values.push_back(Tensor(Shape{a.embed_dim}, 0.0f));
        break;
      }
      case OpKind::kInput:
      case OpKind::kActivation:
      case OpKind::kMaxPool2d:
      case OpKind::kAvgPool2d:
      case OpKind::kAdaptiveAvgPool2d:
      case OpKind::kFlatten:
      case OpKind::kAdd:
      case OpKind::kMultiply:
      case OpKind::kConcat:
      case OpKind::kDropout:
      case OpKind::kSliceChannels:
      case OpKind::kChannelShuffle:
      case OpKind::kToTokens:  // cls token is a non-learnable constant
      case OpKind::kSelectToken:
      case OpKind::kTransposeTokens:
        continue;
    }
    for (const Tensor& t : state.values) {
      state.adam_m.emplace_back(t.shape());
      state.adam_v.emplace_back(t.shape());
    }
    params_.emplace(n.id, std::move(state));
  }
}

const std::vector<Tensor>& Trainer::parameters(NodeId id) const {
  const auto it = params_.find(id);
  CM_CHECK(it != params_.end(), "node has no parameters");
  return it->second.values;
}

std::vector<Tensor> Trainer::forward(const Tensor& input) {
  CM_TRACE_SPAN("trainer.forward", "train");
  std::vector<Tensor> outputs(graph_.size());
  for (const auto& n : graph_.nodes()) {
    const auto in = [&](std::size_t i) -> const Tensor& {
      return outputs[static_cast<std::size_t>(n.inputs.at(i))];
    };
    switch (n.kind) {
      case OpKind::kInput:
        outputs[0] = input;
        break;
      case OpKind::kConv2d: {
        const auto& a = n.as<Conv2dAttrs>();
        const auto& p = params_.at(n.id).values;
        outputs[static_cast<std::size_t>(n.id)] = conv2d_im2col(
            pool_, in(0), p[0], a.bias ? p[1] : Tensor(), a);
        break;
      }
      case OpKind::kBatchNorm2d: {
        const auto c = n.as<BatchNorm2dAttrs>().channels;
        const auto& p = params_.at(n.id).values;
        // Frozen unit statistics: the affine transform is the trainable
        // part; per-batch statistics are out of scope for timing studies.
        const Tensor mean(Shape{c}, 0.0f);
        const Tensor var(Shape{c}, 1.0f);
        outputs[static_cast<std::size_t>(n.id)] =
            batch_norm2d(pool_, in(0), p[0], p[1], mean, var);
        break;
      }
      case OpKind::kActivation:
        outputs[static_cast<std::size_t>(n.id)] =
            activation(pool_, in(0), n.as<ActivationAttrs>().kind);
        break;
      case OpKind::kMaxPool2d:
        outputs[static_cast<std::size_t>(n.id)] =
            max_pool2d(pool_, in(0), n.as<Pool2dAttrs>());
        break;
      case OpKind::kAvgPool2d:
        outputs[static_cast<std::size_t>(n.id)] =
            avg_pool2d(pool_, in(0), n.as<Pool2dAttrs>());
        break;
      case OpKind::kAdaptiveAvgPool2d: {
        const auto& a = n.as<AdaptiveAvgPool2dAttrs>();
        outputs[static_cast<std::size_t>(n.id)] =
            adaptive_avg_pool2d(pool_, in(0), a.out_h, a.out_w);
        break;
      }
      case OpKind::kLinear: {
        const auto& a = n.as<LinearAttrs>();
        const auto& p = params_.at(n.id).values;
        outputs[static_cast<std::size_t>(n.id)] =
            linear(pool_, in(0), p[0], a.bias ? p[1] : Tensor(), a);
        break;
      }
      case OpKind::kFlatten:
        outputs[static_cast<std::size_t>(n.id)] = flatten(in(0));
        break;
      case OpKind::kAdd:
        outputs[static_cast<std::size_t>(n.id)] = add(in(0), in(1));
        break;
      case OpKind::kMultiply:
        outputs[static_cast<std::size_t>(n.id)] = multiply(in(0), in(1));
        break;
      case OpKind::kConcat: {
        std::vector<Tensor> ins;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) ins.push_back(in(i));
        outputs[static_cast<std::size_t>(n.id)] = concat(ins);
        break;
      }
      case OpKind::kDropout:
        outputs[static_cast<std::size_t>(n.id)] = in(0);
        break;
      case OpKind::kSliceChannels: {
        const auto& a = n.as<SliceChannelsAttrs>();
        outputs[static_cast<std::size_t>(n.id)] =
            slice_channels(in(0), a.begin, a.end);
        break;
      }
      case OpKind::kChannelShuffle:
        outputs[static_cast<std::size_t>(n.id)] =
            channel_shuffle(in(0), n.as<ChannelShuffleAttrs>().groups);
        break;
      case OpKind::kToTokens: {
        const auto& a = n.as<ToTokensAttrs>();
        Tensor cls;
        if (a.cls_token) {
          // Non-learnable constant, regenerated by the executor's weight
          // generator from the same node seed; keeping it out of params_
          // keeps parameter_count() and the trainable set consistent.
          const std::int64_t c = in(0).shape().channels();
          const float scale =
              static_cast<float>(1.0 / std::sqrt(static_cast<double>(c)));
          cls = make_weight(pool_, Shape{c},
                            node_weight_seed(config_.weight_seed, n.id), scale);
        }
        outputs[static_cast<std::size_t>(n.id)] =
            to_tokens(pool_, in(0), cls, a);
        break;
      }
      case OpKind::kLayerNorm: {
        const auto& p = params_.at(n.id).values;
        outputs[static_cast<std::size_t>(n.id)] =
            layer_norm(pool_, in(0), p[0], p[1], n.as<LayerNormAttrs>());
        break;
      }
      case OpKind::kSelfAttention: {
        const auto& p = params_.at(n.id).values;
        outputs[static_cast<std::size_t>(n.id)] = self_attention(
            pool_, in(0), p[0], p[1], p[2], p[3], n.as<SelfAttentionAttrs>());
        break;
      }
      case OpKind::kSelectToken:
        outputs[static_cast<std::size_t>(n.id)] =
            select_token(in(0), n.as<SelectTokenAttrs>().index);
        break;
      case OpKind::kTransposeTokens:
        outputs[static_cast<std::size_t>(n.id)] =
            transpose_tokens(pool_, in(0));
        break;
    }
  }
  return outputs;
}

RealStepResult Trainer::evaluate(const Tensor& input,
                                 const std::vector<int>& labels) {
  CM_TRACE_SPAN("trainer.evaluate", "train");
  const auto t0 = Clock::now();
  const std::vector<Tensor> outputs = forward(input);
  RealStepResult r;
  r.fwd_seconds = elapsed_seconds(t0);
  const Tensor& logits = outputs[static_cast<std::size_t>(graph_.output_id())];
  r.loss = softmax_cross_entropy(logits, labels, nullptr);

  const auto classes = static_cast<std::size_t>(logits.shape().dim(1));
  std::size_t correct = 0;
  for (std::size_t b = 0; b < labels.size(); ++b) {
    const auto row = logits.data().subspan(b * classes, classes);
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (static_cast<int>(best) == labels[b]) ++correct;
  }
  r.accuracy = static_cast<double>(correct) / static_cast<double>(labels.size());
  return r;
}

RealStepResult Trainer::step(const Tensor& input,
                             const std::vector<int>& labels) {
  CM_TRACE_SPAN("trainer.step", "train");
  GradientMap grads;
  RealStepResult result = compute_gradients(input, labels, &grads);
  const auto t0 = Clock::now();
  apply_gradients(grads);
  result.update_seconds = elapsed_seconds(t0);
  if (memtrack::enabled()) {
    result.mem_peak_bytes = memtrack::peak_bytes();
    result.mem_workspace_bytes = memtrack::workspace_high_water_bytes();
  }
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    registry.counter("trainer.steps").add();
    registry.histogram("trainer.fwd_seconds").observe(result.fwd_seconds);
    registry.histogram("trainer.bwd_seconds").observe(result.bwd_seconds);
    registry.histogram("trainer.update_seconds")
        .observe(result.update_seconds);
  }
  return result;
}

RealStepResult Trainer::compute_gradients(const Tensor& input,
                                          const std::vector<int>& labels,
                                          GradientMap* out_grads) {
  CM_CHECK(out_grads != nullptr, "compute_gradients needs a gradient map");
  RealStepResult result;

  // ---- forward -------------------------------------------------------------
  auto t0 = Clock::now();
  std::optional<obs::TraceSpan> phase_span;
  if (obs::enabled()) phase_span.emplace("trainer.fwd", "train");
  const std::vector<Tensor> outputs = forward(input);
  phase_span.reset();
  result.fwd_seconds = elapsed_seconds(t0);

  const NodeId sink = graph_.output_id();
  const Tensor& logits = outputs[static_cast<std::size_t>(sink)];

  // ---- loss + backward -------------------------------------------------------
  t0 = Clock::now();
  if (obs::enabled()) phase_span.emplace("trainer.bwd", "train");
  Tensor grad_logits;
  result.loss = softmax_cross_entropy(logits, labels, &grad_logits);

  // Per-node accumulated output gradients (reverse topological order).
  std::vector<Tensor> grads(graph_.size());
  grads[static_cast<std::size_t>(sink)] = std::move(grad_logits);
  GradientMap& param_grads = *out_grads;
  param_grads.clear();

  const auto accumulate = [&](NodeId id, Tensor grad) {
    Tensor& slot = grads[static_cast<std::size_t>(id)];
    if (slot.numel() == 0) {
      slot = std::move(grad);
    } else {
      slot = add(slot, grad);
    }
  };

  for (auto it = graph_.nodes().rbegin(); it != graph_.nodes().rend(); ++it) {
    const Node& n = *it;
    Tensor& go = grads[static_cast<std::size_t>(n.id)];
    if (go.numel() == 0) continue;  // no gradient flows through this node
    const auto in_tensor = [&](std::size_t i) -> const Tensor& {
      return outputs[static_cast<std::size_t>(n.inputs.at(i))];
    };
    switch (n.kind) {
      case OpKind::kInput:
        break;
      case OpKind::kConv2d: {
        const auto& a = n.as<Conv2dAttrs>();
        const auto& p = params_.at(n.id).values;
        ConvGradients g = conv2d_backward(pool_, in_tensor(0), p[0], go, a);
        std::vector<Tensor> pg;
        pg.push_back(std::move(g.grad_weight));
        if (a.bias) pg.push_back(std::move(g.grad_bias));
        param_grads.emplace(n.id, std::move(pg));
        accumulate(n.inputs[0], std::move(g.grad_input));
        break;
      }
      case OpKind::kLinear: {
        const auto& a = n.as<LinearAttrs>();
        const auto& p = params_.at(n.id).values;
        LinearGradients g = linear_backward(pool_, in_tensor(0), p[0], go, a);
        std::vector<Tensor> pg;
        pg.push_back(std::move(g.grad_weight));
        if (a.bias) pg.push_back(std::move(g.grad_bias));
        param_grads.emplace(n.id, std::move(pg));
        accumulate(n.inputs[0], std::move(g.grad_input));
        break;
      }
      case OpKind::kBatchNorm2d: {
        const auto c = n.as<BatchNorm2dAttrs>().channels;
        const auto& p = params_.at(n.id).values;
        const Tensor mean(Shape{c}, 0.0f);
        const Tensor var(Shape{c}, 1.0f);
        BatchNormGradients g =
            batch_norm2d_backward(in_tensor(0), p[0], mean, var, go);
        param_grads.emplace(
            n.id, std::vector<Tensor>{std::move(g.grad_gamma),
                                      std::move(g.grad_beta)});
        accumulate(n.inputs[0], std::move(g.grad_input));
        break;
      }
      case OpKind::kActivation:
        accumulate(n.inputs[0],
                   activation_backward(in_tensor(0), go,
                                       n.as<ActivationAttrs>().kind));
        break;
      case OpKind::kMaxPool2d:
        accumulate(n.inputs[0],
                   max_pool2d_backward(in_tensor(0), go, n.as<Pool2dAttrs>()));
        break;
      case OpKind::kAvgPool2d:
        accumulate(n.inputs[0],
                   avg_pool2d_backward(in_tensor(0), go, n.as<Pool2dAttrs>()));
        break;
      case OpKind::kAdaptiveAvgPool2d:
        accumulate(n.inputs[0],
                   adaptive_avg_pool2d_backward(in_tensor(0), go));
        break;
      case OpKind::kFlatten:
        accumulate(n.inputs[0],
                   flatten_backward(in_tensor(0).shape(), go));
        break;
      case OpKind::kAdd:
        accumulate(n.inputs[0], go);
        accumulate(n.inputs[1], go);
        break;
      case OpKind::kMultiply: {
        const Tensor& a = in_tensor(0);
        const Tensor& b = in_tensor(1);
        // d a = go * b (broadcast); d b = sum_hw(go * a) for the SE gate.
        accumulate(n.inputs[0], multiply(go, b));
        if (a.shape() == b.shape()) {
          accumulate(n.inputs[1], multiply(go, a));
        } else {
          Tensor gb(b.shape());
          const auto& s = a.shape();
          for (std::int64_t nn = 0; nn < s.batch(); ++nn) {
            for (std::int64_t cc = 0; cc < s.channels(); ++cc) {
              float acc = 0.0f;
              for (std::int64_t hh = 0; hh < s.height(); ++hh) {
                for (std::int64_t ww = 0; ww < s.width(); ++ww) {
                  acc += go.at4(nn, cc, hh, ww) * a.at4(nn, cc, hh, ww);
                }
              }
              gb.at4(nn, cc, 0, 0) = acc;
            }
          }
          accumulate(n.inputs[1], std::move(gb));
        }
        break;
      }
      case OpKind::kConcat: {
        const auto& s = go.shape();
        std::int64_t c_off = 0;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
          const Shape& part_shape = in_tensor(i).shape();
          Tensor part(part_shape);
          for (std::int64_t nn = 0; nn < s.batch(); ++nn) {
            for (std::int64_t cc = 0; cc < part_shape.channels(); ++cc) {
              for (std::int64_t hh = 0; hh < s.height(); ++hh) {
                for (std::int64_t ww = 0; ww < s.width(); ++ww) {
                  part.at4(nn, cc, hh, ww) = go.at4(nn, c_off + cc, hh, ww);
                }
              }
            }
          }
          c_off += part_shape.channels();
          accumulate(n.inputs[i], std::move(part));
        }
        break;
      }
      case OpKind::kDropout:
        accumulate(n.inputs[0], go);
        break;
      case OpKind::kSliceChannels: {
        // Scatter the slice gradient back into a zero tensor of the
        // input's shape.
        const auto& a = n.as<SliceChannelsAttrs>();
        const Shape& in_shape = in_tensor(0).shape();
        Tensor gi(in_shape);
        for (std::int64_t nn = 0; nn < in_shape.batch(); ++nn) {
          for (std::int64_t cc = a.begin; cc < a.end; ++cc) {
            for (std::int64_t hh = 0; hh < in_shape.height(); ++hh) {
              for (std::int64_t ww = 0; ww < in_shape.width(); ++ww) {
                gi.at4(nn, cc, hh, ww) = go.at4(nn, cc - a.begin, hh, ww);
              }
            }
          }
        }
        accumulate(n.inputs[0], std::move(gi));
        break;
      }
      case OpKind::kChannelShuffle: {
        // The shuffle is a permutation; its backward is the inverse
        // permutation, i.e. a shuffle with C/groups groups.
        const auto groups = n.as<ChannelShuffleAttrs>().groups;
        const std::int64_t channels = go.shape().channels();
        accumulate(n.inputs[0], channel_shuffle(go, channels / groups));
        break;
      }
      case OpKind::kToTokens:
        // The cls-token row (if any) is a non-learnable constant; its
        // gradient is dropped inside to_tokens_backward.
        accumulate(n.inputs[0],
                   to_tokens_backward(in_tensor(0).shape(), go,
                                      n.as<ToTokensAttrs>()));
        break;
      case OpKind::kLayerNorm: {
        const auto& p = params_.at(n.id).values;
        LayerNormGradients g = layer_norm_backward(
            pool_, in_tensor(0), p[0], go, n.as<LayerNormAttrs>());
        param_grads.emplace(
            n.id, std::vector<Tensor>{std::move(g.grad_gamma),
                                      std::move(g.grad_beta)});
        accumulate(n.inputs[0], std::move(g.grad_input));
        break;
      }
      case OpKind::kSelfAttention: {
        const auto& p = params_.at(n.id).values;
        AttentionGradients g = self_attention_backward(
            pool_, in_tensor(0), p[0], p[1], p[2], p[3], go,
            n.as<SelfAttentionAttrs>());
        std::vector<Tensor> pg;
        pg.push_back(std::move(g.grad_in_proj_w));
        pg.push_back(std::move(g.grad_in_proj_b));
        pg.push_back(std::move(g.grad_out_proj_w));
        pg.push_back(std::move(g.grad_out_proj_b));
        param_grads.emplace(n.id, std::move(pg));
        accumulate(n.inputs[0], std::move(g.grad_input));
        break;
      }
      case OpKind::kSelectToken:
        accumulate(n.inputs[0],
                   select_token_backward(in_tensor(0).shape(), go,
                                         n.as<SelectTokenAttrs>().index));
        break;
      case OpKind::kTransposeTokens:
        // The (B, T, C) <-> (B, C, T) swap is an involution, so the
        // backward pass is the same transpose applied to the gradient.
        accumulate(n.inputs[0], transpose_tokens(pool_, go));
        break;
    }
  }
  phase_span.reset();
  result.bwd_seconds = elapsed_seconds(t0);

  // Accuracy bookkeeping from the already-computed logits.
  const auto classes = static_cast<std::size_t>(logits.shape().dim(1));
  std::size_t correct = 0;
  for (std::size_t b = 0; b < labels.size(); ++b) {
    const auto row = logits.data().subspan(b * classes, classes);
    std::size_t best = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (static_cast<int>(best) == labels[b]) ++correct;
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(labels.size());
  return result;
}

void Trainer::apply_gradients(GradientMap& grads) {
  CM_TRACE_SPAN("trainer.grad_update", "train");
  ++step_count_;
  const auto lr = static_cast<float>(config_.learning_rate);
  for (auto& [id, state] : params_) {
    const auto it = grads.find(id);
    if (it == grads.end()) continue;
    auto& gs = it->second;
    CM_CHECK(gs.size() == state.values.size(),
             "gradient/parameter arity mismatch");
    for (std::size_t p = 0; p < state.values.size(); ++p) {
      auto v = state.values[p].data();
      const auto g = gs[p].data();
      if (config_.optimizer == TrainerConfig::Optimizer::kSgd) {
        for (std::size_t i = 0; i < v.size(); ++i) v[i] -= lr * g[i];
        continue;
      }
      // Adam with bias correction.
      auto m = state.adam_m[p].data();
      auto vv = state.adam_v[p].data();
      const auto b1 = static_cast<float>(config_.adam_beta1);
      const auto b2 = static_cast<float>(config_.adam_beta2);
      const auto eps = static_cast<float>(config_.adam_eps);
      const float bc1 =
          1.0f - std::pow(b1, static_cast<float>(step_count_));
      const float bc2 =
          1.0f - std::pow(b2, static_cast<float>(step_count_));
      for (std::size_t i = 0; i < v.size(); ++i) {
        m[i] = b1 * m[i] + (1.0f - b1) * g[i];
        vv[i] = b2 * vv[i] + (1.0f - b2) * g[i] * g[i];
        const float mhat = m[i] / bc1;
        const float vhat = vv[i] / bc2;
        v[i] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
  }
}

}  // namespace convmeter
