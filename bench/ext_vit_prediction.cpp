// Extension (paper future work, Sec. 6): vision transformers.
//
// ConvMeter's I and O metrics sum over *convolutional* layers — in a ViT
// only the patch embedding is a convolution, so those features collapse to
// a constant and lose their predictive power. Generalizing I and O to all
// primary compute layers (conv + linear + attention) restores the model:
// the same four-coefficient linear form fits transformer inference.
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"
#include "predict/evaluate.hpp"
#include "sim/cost_model.hpp"
#include "sim/inference_sim.hpp"

using namespace convmeter;

int main() {
  std::cout << "Extension -- ViT inference prediction on the A100 "
               "(future work of the paper)\n\n";

  const std::vector<std::string> vits = {"vit_ti_16", "vit_s_16", "vit_b_16",
                                         "vit_b_32", "vit_l_16"};
  InferenceSimulator sim(a100_80gb());
  Rng rng(0x717);

  // The same measurements twice: once with the paper's conv-only I/O
  // metrics, once with I/O generalized to every primary compute layer.
  std::vector<RuntimeSample> conv_io;
  std::vector<RuntimeSample> compute_io;
  for (const std::string& name : vits) {
    const Graph g = models::build(name);
    const GraphMetrics m = compute_metrics_b1(g, 224);
    for (const std::int64_t batch : {1, 4, 16, 64, 256}) {
      const Shape shape = Shape::nchw(batch, 3, 224, 224);
      if (!fits_in_memory(sim.device(), g, shape, false)) continue;
      for (int rep = 0; rep < 3; ++rep) {
        RuntimeSample s;
        s.model = name;
        s.global_batch = batch;
        s.num_devices = 1;
        s.flops1 = m.flops;
        s.t_infer = sim.measure(g, shape, rng);
        s.inputs1 = m.conv_inputs;
        s.outputs1 = m.conv_outputs;
        conv_io.push_back(s);
        s.inputs1 = m.compute_inputs;
        s.outputs1 = m.compute_outputs;
        compute_io.push_back(s);
      }
    }
  }
  std::cout << "campaign: " << conv_io.size() << " ViT samples\n\n";

  const LooResult conv_based = evaluate_loo("convmeter-fwd-only", conv_io);
  const LooResult generalized =
      evaluate_loo("convmeter-fwd-only", compute_io);

  ConsoleTable table({"Feature set", "R^2", "NRMSE", "MAPE"});
  table.add_row({"paper (F, conv I/O)",
                 ConsoleTable::fmt(conv_based.pooled.r2, 3),
                 ConsoleTable::fmt(conv_based.pooled.nrmse, 3),
                 ConsoleTable::fmt(conv_based.pooled.mape, 3)});
  table.add_row({"generalized (F, compute I/O)",
                 ConsoleTable::fmt(generalized.pooled.r2, 3),
                 ConsoleTable::fmt(generalized.pooled.nrmse, 3),
                 ConsoleTable::fmt(generalized.pooled.mape, 3)});
  table.print(std::cout);

  std::cout << "\nPer-ViT MAPE with generalized features:\n";
  ConsoleTable per({"Model", "MAPE", "NRMSE"});
  for (const auto& g : generalized.per_group) {
    per.add_row({g.group, ConsoleTable::fmt(g.errors.mape, 3),
                 ConsoleTable::fmt(g.errors.nrmse, 3)});
  }
  per.print(std::cout);

  std::cout << "\nExpected shape: the conv-only I/O features carry almost "
               "no signal for ViTs (only the patch embed is a conv); the "
               "generalized compute I/O restores the paper's accuracy "
               "band, supporting the claim that the approach extends to "
               "transformers 'with minor effort' (Sec. 3).\n";
  return 0;
}
