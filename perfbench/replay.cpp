#include "replay.hpp"

#include <cmath>

#include "common/clock.hpp"
#include "exec/backward.hpp"
#include "exec/executor.hpp"
#include "exec/kernels.hpp"
#include "graph/shape_inference.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace convmeter;

namespace {

Tensor random_tensor(const Shape& shape, std::uint64_t seed, float scale) {
  Tensor t(shape);
  t.fill_random(seed);
  for (float& v : t.data()) v *= scale;
  return t;
}

/// Keeps the optimizer from discarding a kernel result.
void consume(const Tensor& t) {
  volatile float sink = t.numel() > 0 ? t.data()[0] : 0.0f;
  (void)sink;
}

}  // namespace

std::vector<ConvCase> conv_cases(const Graph& graph, const Shape& input_shape,
                                 std::uint64_t seed, bool with_grad) {
  const ShapeMap shapes = infer_shapes(graph, input_shape);
  const std::vector<std::optional<ActKind>> fused =
      plan_fused_activations(graph);
  std::vector<ConvCase> cases;
  for (const Node& n : graph.nodes()) {
    if (n.kind != OpKind::kConv2d) continue;
    const auto id = static_cast<std::size_t>(n.id);
    const Shape& in = shapes[static_cast<std::size_t>(n.inputs.at(0))];
    const Shape& out = shapes[id];
    ConvCase c;
    c.attrs = n.as<Conv2dAttrs>();
    c.fused_act = fused[id];
    const std::int64_t fan_in =
        c.attrs.in_channels / c.attrs.groups * c.attrs.kernel_h * c.attrs.kernel_w;
    const auto scale = static_cast<float>(1.0 / std::sqrt(static_cast<double>(fan_in)));
    const std::uint64_t s = seed + 4 * id;
    c.input = random_tensor(in, s, 1.0f);
    c.weight = random_tensor(Shape({c.attrs.out_channels, c.attrs.in_channels / c.attrs.groups,
                                    c.attrs.kernel_h, c.attrs.kernel_w}),
                             s + 1, scale);
    if (c.attrs.bias) c.bias = random_tensor(Shape{c.attrs.out_channels}, s + 2, scale);
    if (with_grad) c.grad_output = random_tensor(out, s + 3, 1.0f);
    c.flops = 2.0 * static_cast<double>(out.numel()) * static_cast<double>(fan_in);
    c.bytes = 4.0 * static_cast<double>(in.numel() + c.weight.numel() + out.numel());
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<LinearCase> linear_cases(const Graph& graph, const Shape& input_shape,
                                     std::uint64_t seed) {
  const ShapeMap shapes = infer_shapes(graph, input_shape);
  const std::vector<std::optional<ActKind>> fused =
      plan_fused_activations(graph);
  std::vector<LinearCase> cases;
  for (const Node& n : graph.nodes()) {
    if (n.kind != OpKind::kLinear) continue;
    const auto id = static_cast<std::size_t>(n.id);
    LinearCase c;
    c.attrs = n.as<LinearAttrs>();
    c.fused_act = fused[id];
    const auto scale = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(c.attrs.in_features)));
    const std::uint64_t s = seed + 3 * id;
    c.input = random_tensor(shapes[static_cast<std::size_t>(n.inputs.at(0))], s, 1.0f);
    c.weight = random_tensor(Shape({c.attrs.out_features, c.attrs.in_features}),
                             s + 1, scale);
    if (c.attrs.bias) c.bias = random_tensor(Shape{c.attrs.out_features}, s + 2, scale);
    cases.push_back(std::move(c));
  }
  return cases;
}

double replay_conv_forward(ThreadPool& pool, const std::vector<ConvCase>& cases) {
  Span span("replay.conv2d_forward");
  const TimePoint t0 = Clock::now();
  for (const ConvCase& c : cases) {
    consume(conv2d_forward(pool, c.input, c.weight, c.bias, c.attrs, c.fused_act));
  }
  return elapsed_seconds(t0);
}

double replay_conv_backward(ThreadPool& pool, const std::vector<ConvCase>& cases) {
  Span span("replay.conv2d_backward");
  const TimePoint t0 = Clock::now();
  for (const ConvCase& c : cases) {
    consume(conv2d_backward(pool, c.input, c.weight, c.grad_output, c.attrs).grad_input);
  }
  return elapsed_seconds(t0);
}

double replay_linear(ThreadPool& pool, const std::vector<LinearCase>& cases) {
  Span span("replay.linear");
  const TimePoint t0 = Clock::now();
  for (const LinearCase& c : cases) {
    consume(linear(pool, c.input, c.weight, c.bias, c.attrs, c.fused_act));
  }
  return elapsed_seconds(t0);
}

double gemm_gflops(ThreadPool& pool, std::size_t dim, int trials) {
  Span span("replay.gemm_" + std::to_string(dim) + "_" +
            std::to_string(pool.num_threads()) + "t");
  const auto d = static_cast<std::int64_t>(dim);
  const Tensor a = random_tensor(Shape({d, d}), 1, 1.0f);
  const Tensor b = random_tensor(Shape({d, d}), 2, 1.0f);
  std::vector<float> c(dim * dim, 0.0f);
  GemmOpts opts;
  opts.beta = 0.0f;
  const double flops = 2.0 * static_cast<double>(dim) * dim * dim;
  gemm(pool, a.data(), b.data(), c, dim, dim, dim, opts);  // warm-up
  std::vector<double> rates;
  for (int t = 0; t < trials; ++t) {
    const TimePoint t0 = Clock::now();
    gemm(pool, a.data(), b.data(), c, dim, dim, dim, opts);
    rates.push_back(flops / elapsed_seconds(t0) * 1e-9);
  }
  return median(rates);
}

double attention_gflops(ThreadPool& pool, int trials) {
  Span span("replay.self_attention");
  constexpr std::int64_t kBatch = 4, kTokens = 197, kDim = 384;
  SelfAttentionAttrs attrs;
  attrs.embed_dim = kDim;
  attrs.num_heads = 6;
  const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
  const Tensor input = random_tensor(Shape({kBatch, kTokens, kDim}), 1, 1.0f);
  const Tensor in_w = random_tensor(Shape({3 * kDim, kDim}), 2, scale);
  const Tensor in_b = random_tensor(Shape({3 * kDim}), 3, scale);
  const Tensor out_w = random_tensor(Shape({kDim, kDim}), 4, scale);
  const Tensor out_b = random_tensor(Shape({kDim}), 5, scale);
  const double flops =
      2.0 * kBatch * kTokens * kDim * (4.0 * kDim + 2.0 * kTokens);
  consume(self_attention(pool, input, in_w, in_b, out_w, out_b, attrs));
  std::vector<double> rates;
  for (int t = 0; t < trials; ++t) {
    const TimePoint t0 = Clock::now();
    consume(self_attention(pool, input, in_w, in_b, out_w, out_b, attrs));
    rates.push_back(flops / elapsed_seconds(t0) * 1e-9);
  }
  return median(rates);
}

}  // namespace perfbench
