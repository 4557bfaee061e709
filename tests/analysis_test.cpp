// Analysis-layer tests: the diagnostic sink and its renderers, every
// built-in pass against hand-built defective graphs, the adversarial graph
// corpus under tests/data/lint, a zero-diagnostics sweep over every zoo
// model, pass gating, and the executor pre-flight hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "common/json.hpp"
#include "exec/executor.hpp"
#include "graph/serialize.hpp"
#include "models/zoo.hpp"

namespace convmeter::analysis {
namespace {

/// True when the report contains a diagnostic with the given id.
bool has_id(const VerifyReport& report, const std::string& id) {
  const auto& ds = report.sink.diagnostics();
  return std::any_of(ds.begin(), ds.end(),
                     [&](const Diagnostic& d) { return d.id == id; });
}

VerifyReport verify(const Graph& g, std::int64_t image = 32,
                    bool training = false) {
  VerifyOptions options;
  const std::int64_t channels =
      g.input_channels() > 0 ? g.input_channels() : 3;
  options.input_shape = Shape::nchw(1, channels, image, image);
  options.training = training;
  const Verifier verifier;
  return verifier.verify(g, options);
}

/// A minimal well-formed graph for mutation-based tests.
std::vector<Node> tiny_nodes() {
  Graph g("tiny");
  NodeId x = g.input(3);
  x = g.conv2d("c", x, Conv2dAttrs::square(3, 4, 3, 1, 1));
  x = g.activation("r", x, ActKind::kReLU);
  x = g.adaptive_avg_pool("p", x, 1, 1);
  x = g.flatten("f", x);
  g.linear("fc", x, LinearAttrs{4, 10, true});
  return g.nodes();
}

TEST(DiagnosticsTest, ToStringAndCounts) {
  DiagnosticSink sink;
  sink.report(Severity::kError, "dataflow.cycle", "dataflow", 3, "relu",
              "node participates in a dependency cycle", "break the cycle");
  sink.report(Severity::kWarning, "determinism.grad_reduction", "determinism",
              -1, "", "thread-sensitive reduction");
  sink.report(Severity::kNote, "workspace.peak", "workspace", 1, "c",
              "peak 123 bytes");
  EXPECT_EQ(sink.errors(), 1u);
  EXPECT_EQ(sink.warnings(), 1u);
  EXPECT_EQ(sink.notes(), 1u);
  EXPECT_TRUE(sink.has_findings(Severity::kNote));
  EXPECT_TRUE(sink.has_findings(Severity::kError));

  const std::string line = sink.diagnostics().front().to_string();
  EXPECT_NE(line.find("error[dataflow.cycle]"), std::string::npos);
  EXPECT_NE(line.find("'relu'"), std::string::npos);
  EXPECT_NE(line.find("[hint: break the cycle]"), std::string::npos);

  const std::string text = sink.render_text("g");
  EXPECT_NE(text.find("verifying graph 'g'"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos);
}

TEST(DiagnosticsTest, JsonRoundTripsThroughParser) {
  DiagnosticSink sink;
  sink.report(Severity::kError, "shapes.contract", "shapes", 2, "conv",
              "channel mismatch");
  const json::Value v = json::parse(sink.render_json("resnet"));
  EXPECT_EQ(v.at("graph").as_string(), "resnet");
  EXPECT_EQ(v.at("errors").as_number(), 1.0);
  const auto& items = v.at("diagnostics").as_array();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].at("id").as_string(), "shapes.contract");
  EXPECT_EQ(items[0].at("severity").as_string(), "error");
  EXPECT_EQ(items[0].at("node").as_number(), 2.0);
}

TEST(VerifierTest, CleanGraphHasNoErrorsOrWarnings) {
  const VerifyReport r = verify(Graph::unchecked("tiny", 3, tiny_nodes()));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.passes.size(), 10u);
  for (const PassStat& p : r.passes) EXPECT_FALSE(p.skipped);
}

TEST(VerifierTest, EmptyGraph) {
  const VerifyReport r = verify(Graph::unchecked("empty", 0, {}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_id(r, "structure.empty_graph"));
}

TEST(VerifierTest, DuplicateNameAndBadArity) {
  auto nodes = tiny_nodes();
  nodes[2].name = "c";       // duplicate of the conv
  nodes[4].inputs = {2, 3};  // flatten with two inputs
  const VerifyReport r = verify(Graph::unchecked("dup", 3, nodes));
  EXPECT_TRUE(has_id(r, "structure.duplicate_name"));
  EXPECT_TRUE(has_id(r, "structure.bad_arity"));
}

TEST(VerifierTest, AttrPayloadMismatch) {
  auto nodes = tiny_nodes();
  nodes[1].attrs = Pool2dAttrs::square(2, 2);  // conv carrying pool attrs
  const VerifyReport r = verify(Graph::unchecked("mismatch", 3, nodes));
  EXPECT_TRUE(has_id(r, "structure.attr_mismatch"));
}

TEST(VerifierTest, DanglingEdgeSkipsShapeDependentPasses) {
  auto nodes = tiny_nodes();
  nodes[1].inputs = {41};
  const VerifyReport r = verify(Graph::unchecked("dangling", 3, nodes));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_id(r, "dataflow.dangling_edge"));
  // Passes that need in-range edges must be recorded as skipped, not run.
  bool shapes_skipped = false;
  for (const PassStat& p : r.passes) {
    if (p.name == "shapes") shapes_skipped = p.skipped;
  }
  EXPECT_TRUE(shapes_skipped);
}

TEST(VerifierTest, CycleIsReported) {
  auto nodes = tiny_nodes();
  nodes[1].inputs = {2};  // conv consumes the activation that consumes it
  const VerifyReport r = verify(Graph::unchecked("cycle", 3, nodes));
  EXPECT_TRUE(has_id(r, "dataflow.cycle"));
  EXPECT_TRUE(has_id(r, "dataflow.use_before_def"));
}

TEST(VerifierTest, DeadOpIsReported) {
  auto nodes = tiny_nodes();
  Node dead;
  dead.name = "dead";
  dead.kind = OpKind::kConv2d;
  dead.attrs = Conv2dAttrs::square(3, 4, 3, 1, 1);
  dead.inputs = {0};
  nodes.insert(nodes.begin() + 1, dead);
  // Re-point the original conv chain past the inserted node.
  for (std::size_t i = 2; i < nodes.size(); ++i) {
    for (NodeId& in : nodes[i].inputs) {
      if (in >= 1) ++in;
    }
  }
  const VerifyReport r = verify(Graph::unchecked("dead", 3, nodes));
  EXPECT_TRUE(has_id(r, "reachability.dead_op"));
}

TEST(VerifierTest, ShapeContractViolation) {
  auto nodes = tiny_nodes();
  nodes[1].attrs = Conv2dAttrs::square(64, 4, 3, 1, 1);  // expects 64 ch
  const VerifyReport r = verify(Graph::unchecked("mismatch", 3, nodes));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_id(r, "shapes.contract"));
}

TEST(VerifierTest, GroupsMustDivideChannels) {
  auto nodes = tiny_nodes();
  auto attrs = Conv2dAttrs::square(3, 4, 3, 1, 1);
  attrs.groups = 2;  // does not divide in_channels=3
  nodes[1].attrs = attrs;
  const VerifyReport r = verify(Graph::unchecked("groups", 3, nodes));
  EXPECT_TRUE(has_id(r, "attrs.groups"));
}

TEST(VerifierTest, IllegalFusionOrdering) {
  // The activation precedes the conv it would fuse into: the executor
  // would move the conv's (not yet produced) output tensor.
  std::vector<Node> nodes(4);
  nodes[0].name = "input";
  nodes[0].kind = OpKind::kInput;
  nodes[0].attrs = InputAttrs{};
  nodes[1].name = "relu";
  nodes[1].kind = OpKind::kActivation;
  nodes[1].attrs = ActivationAttrs{ActKind::kReLU};
  nodes[1].inputs = {2};
  nodes[2].name = "conv";
  nodes[2].kind = OpKind::kConv2d;
  nodes[2].attrs = Conv2dAttrs::square(3, 4, 3, 1, 1);
  nodes[2].inputs = {0};
  nodes[3].name = "flat";
  nodes[3].kind = OpKind::kFlatten;
  nodes[3].attrs = FlattenAttrs{};
  nodes[3].inputs = {1};
  const VerifyReport r = verify(Graph::unchecked("fusion", 3, nodes));
  EXPECT_TRUE(has_id(r, "fusion.use_after_move"));
}

TEST(VerifierTest, WorkspaceOverBudget) {
  auto nodes = tiny_nodes();
  nodes[1].attrs = Conv2dAttrs::square(3, 4, 3, 1, 1);
  VerifyOptions options;
  options.input_shape = Shape::nchw(1, 3, 32, 32);
  options.workspace_budget_bytes = 1024;  // absurdly small budget
  const Verifier verifier;
  const VerifyReport r =
      verifier.verify(Graph::unchecked("ws", 3, nodes), options);
  EXPECT_TRUE(has_id(r, "workspace.over_budget"));
}

TEST(VerifierTest, TrainingAuditFlagsGradReductionAndDropout) {
  Graph g("train");
  NodeId x = g.input(3);
  x = g.conv2d("c", x, Conv2dAttrs::square(3, 4, 3, 1, 1));
  x = g.flatten("f", x);
  x = g.dropout("d", x, 0.5);
  g.linear("fc", x, LinearAttrs{4 * 32 * 32, 10, true});
  const VerifyReport r = verify(g, 32, /*training=*/true);
  EXPECT_TRUE(r.ok());  // warnings, not errors
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(has_id(r, "determinism.grad_reduction"));
  EXPECT_TRUE(has_id(r, "determinism.stochastic"));
  // The same graph is silent on both counts under inference verification.
  const VerifyReport fwd = verify(g, 32, /*training=*/false);
  EXPECT_TRUE(fwd.clean());
}

TEST(VerifierTest, CustomPassParticipates) {
  class AlwaysWarn : public Pass {
   public:
    std::string name() const override { return "custom"; }
    bool needs_valid_edges() const override { return false; }
    void run(const VerifyContext&, DiagnosticSink& sink) const override {
      sink.report(Severity::kWarning, "custom.finding", "custom", -1, "",
                  "injected");
    }
  };
  Verifier verifier;
  verifier.add_pass(std::make_unique<AlwaysWarn>());
  EXPECT_EQ(verifier.pass_count(), 11u);
  VerifyOptions options;
  options.input_shape = Shape::nchw(1, 3, 32, 32);
  const VerifyReport r =
      verifier.verify(Graph::unchecked("tiny", 3, tiny_nodes()), options);
  EXPECT_TRUE(has_id(r, "custom.finding"));
  EXPECT_FALSE(r.clean());
}

struct CorpusCase {
  const char* file;
  const char* expected_id;
  bool training = false;
  std::uint64_t memory_budget = 0;
  // Error-severity cases must fail verification; note-severity cases (the
  // memory planner's advisory diagnostics) must keep ok() while still
  // reporting their id.
  bool is_error = true;
};

// Printed in the test's listed name; the default byte dump would include
// pointer values, which differ from one run to the next.
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.file; }

class CorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorpusTest, ReportsExpectedDiagnostic) {
  const CorpusCase c = GetParam();
  const Graph g = load_graph_unchecked(std::string(CM_LINT_CORPUS_DIR) + "/" +
                                       c.file);
  VerifyOptions options;
  const std::int64_t channels =
      g.input_channels() > 0 ? g.input_channels() : 3;
  options.input_shape = Shape::nchw(1, channels, 224, 224);
  options.training = c.training;
  options.memory_budget_bytes = c.memory_budget;
  const Verifier verifier;
  const VerifyReport r = verifier.verify(g, options);
  if (c.is_error) {
    EXPECT_FALSE(r.ok()) << r.render_text();
  } else {
    EXPECT_TRUE(r.ok()) << r.render_text();
  }
  EXPECT_TRUE(has_id(r, c.expected_id)) << r.render_text();
}

INSTANTIATE_TEST_SUITE_P(
    Lint, CorpusTest,
    ::testing::Values(CorpusCase{"cycle.txt", "dataflow.cycle"},
                      CorpusCase{"dangling.txt", "dataflow.dangling_edge"},
                      CorpusCase{"shape_mismatch.txt", "shapes.contract"},
                      CorpusCase{"illegal_fusion.txt",
                                 "fusion.use_after_move"},
                      CorpusCase{"workspace_bound.txt",
                                 "workspace.over_budget"},
                      CorpusCase{"duplicate_name.txt",
                                 "structure.duplicate_name"},
                      CorpusCase{"dead_op.txt", "reachability.dead_op"},
                      CorpusCase{"bad_attrs.txt", "attrs.groups"},
                      // A 1 MiB budget a 224x224 conv net cannot fit in.
                      CorpusCase{"over_budget.txt", "memplan.over_budget",
                                 false, 1ull << 20},
                      CorpusCase{"reuse.txt", "memplan.reuse", false, 0,
                                 false},
                      CorpusCase{"train_pinned.txt", "liveness.pinned", true,
                                 0, false},
                      // Warning-severity: training lint flags the dropout
                      // as a stochastic op but stays ok().
                      CorpusCase{"determinism.txt", "determinism.stochastic",
                                 true, 0, false}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

TEST(CorpusTest, CleanFilePassesStrictly) {
  const Graph g = load_graph_unchecked(std::string(CM_LINT_CORPUS_DIR) +
                                       "/clean.txt");
  const VerifyReport r = verify(g, 224);
  EXPECT_TRUE(r.ok()) << r.render_text();
  EXPECT_TRUE(r.clean()) << r.render_text();
}

TEST(ZooSweepTest, EveryBuiltInModelVerifiesClean) {
  const Verifier verifier;
  for (const std::string& name : models::available_models()) {
    const Graph g = models::build(name);
    VerifyOptions options;
    const std::int64_t image = models::default_image_size(name);
    options.input_shape =
        Shape::nchw(1, g.input_channels(), image, image);
    const VerifyReport r = verifier.verify(g, options);
    EXPECT_TRUE(r.ok()) << name << ":\n" << r.render_text();
    EXPECT_TRUE(r.clean()) << name << ":\n" << r.render_text();
  }
}

TEST(PreflightTest, HookRejectsDefectiveGraphBeforeExecution) {
  install_executor_preflight();
  auto nodes = tiny_nodes();
  nodes[1].inputs = {41};  // dangling edge
  const Graph bad = Graph::unchecked("bad", 3, nodes);
  Executor exec(1);
  EXPECT_THROW(exec.run_random(bad, Shape::nchw(1, 3, 32, 32)),
               InvalidArgument);
  // A healthy graph still runs with the pre-flight installed.
  const Graph good = Graph::unchecked("good", 3, tiny_nodes());
  EXPECT_NO_THROW(exec.run_random(good, Shape::nchw(1, 3, 8, 8)));
  remove_executor_preflight();
  EXPECT_EQ(exec_preflight(), nullptr);
}

}  // namespace
}  // namespace convmeter::analysis
