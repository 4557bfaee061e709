// Kernel-replay harness: re-runs the library's public kernels on the exact
// layer shapes of a zoo model, with weights allocated once and kept, so a
// layer's kernel time can be separated from everything else the executor
// does inside the same timed layer (per-pass weight generation, output
// allocation, dispatch).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/thread_pool.hpp"
#include "graph/graph.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// One convolution of a model, with persistent operands.
struct ConvCase {
  convmeter::Conv2dAttrs attrs;
  std::optional<convmeter::ActKind> fused_act;
  convmeter::Tensor input;
  convmeter::Tensor weight;
  convmeter::Tensor bias;         ///< empty when the conv has no bias
  convmeter::Tensor grad_output;  ///< filled only by conv_cases(..., true)
  double flops = 0.0;             ///< 2 * MACs of the forward pass
  double bytes = 0.0;             ///< input + weight + output, float32
};

/// Every kConv2d node of `graph` at `input_shape`, operands filled from
/// `seed`. The fused activation is the one the executor would apply.
std::vector<ConvCase> conv_cases(const convmeter::Graph& graph,
                                 const convmeter::Shape& input_shape,
                                 std::uint64_t seed, bool with_grad = false);

/// One linear layer of a model, with persistent operands.
struct LinearCase {
  convmeter::LinearAttrs attrs;
  std::optional<convmeter::ActKind> fused_act;
  convmeter::Tensor input;
  convmeter::Tensor weight;
  convmeter::Tensor bias;
};

std::vector<LinearCase> linear_cases(const convmeter::Graph& graph,
                                     const convmeter::Shape& input_shape,
                                     std::uint64_t seed);

/// Seconds for one conv2d_forward call per case.
double replay_conv_forward(convmeter::ThreadPool& pool,
                           const std::vector<ConvCase>& cases);

/// Seconds for one conv2d_backward call per case (needs grad_output).
double replay_conv_backward(convmeter::ThreadPool& pool,
                            const std::vector<ConvCase>& cases);

/// Seconds for one linear call per case.
double replay_linear(convmeter::ThreadPool& pool,
                     const std::vector<LinearCase>& cases);

/// Median GFLOP/s of a dim^3 packed GEMM over `trials` calls.
double gemm_gflops(convmeter::ThreadPool& pool, std::size_t dim, int trials);

/// Median GFLOP/s of self_attention on a ViT-S block (batch 4, 197 tokens,
/// 384 dims, 6 heads), counted as 2*B*T*D*(4D + 2T) flops.
double attention_gflops(convmeter::ThreadPool& pool, int trials);

}  // namespace perfbench
