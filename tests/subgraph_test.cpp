// Tests for generic block extraction and the named paper blocks (Table 2).
#include <gtest/gtest.h>

#include <ostream>

#include "common/error.hpp"
#include "graph/shape_inference.hpp"
#include "graph/subgraph.hpp"
#include "models/blocks.hpp"
#include "models/zoo.hpp"

namespace convmeter {
namespace models {

// Printed in the listed test names of the AllPaperBlocks sweep; the default
// byte dump would include the label strings' heap addresses. Declared in
// namespace models so argument-dependent lookup finds it next to NamedBlock.
void PrintTo(const NamedBlock& block, std::ostream* os) { *os << block.label; }

}  // namespace models

namespace {

TEST(SubgraphTest, ExtractLinearChain) {
  Graph g("chain");
  NodeId x = g.input(4);
  x = g.conv2d("c1", x, Conv2dAttrs::square(4, 8, 3, 1, 1));
  NodeId mid_first = g.batch_norm("b1", x, 8);
  NodeId mid_last = g.activation("r1", mid_first, ActKind::kReLU);
  g.conv2d("c2", mid_last, Conv2dAttrs::square(8, 8, 1));

  const Graph block = extract_block(g, x, mid_last, 8, "mid");
  EXPECT_EQ(block.size(), 3u);  // input + bn + relu
  EXPECT_EQ(block.input_channels(), 8);
  EXPECT_NO_THROW(block.validate());
}

TEST(SubgraphTest, ExtractResidualRegionKeepsBothPaths) {
  Graph g("res");
  NodeId x = g.input(8);
  NodeId entry = g.activation("pre", x, ActKind::kReLU);
  NodeId y = g.conv2d("c", entry, Conv2dAttrs::square(8, 8, 3, 1, 1));
  y = g.add("add", y, entry);
  NodeId exit = g.activation("post", y, ActKind::kReLU);

  const Graph block = extract_block(g, entry, exit, 8, "res-block");
  EXPECT_EQ(block.size(), 4u);
  // The add must consume both the conv output and the new input node.
  const Node& add_node = block.node(block.find("add"));
  EXPECT_EQ(add_node.inputs.size(), 2u);
}

TEST(SubgraphTest, ExternalReferenceOutsideEntryThrows) {
  Graph g("bad");
  NodeId x = g.input(8);
  NodeId a = g.activation("a", x, ActKind::kReLU);
  NodeId b = g.activation("b", a, ActKind::kReLU);
  g.add("sum", b, x);  // reaches past `a` back to the input
  EXPECT_THROW(extract_block(g, a, g.find("sum"), 8, "bad-block"),
               InvalidArgument);
}

TEST(SubgraphTest, InvalidRangeThrows) {
  const Graph g = models::build("resnet18");
  EXPECT_THROW(extract_block(g, 5, 5, 64, "x"), InvalidArgument);
  EXPECT_THROW(extract_block(g, -1, 3, 64, "x"), InvalidArgument);
}

TEST(NamedBlocksTest, PaperListsNineBlocks) {
  EXPECT_EQ(models::paper_blocks().size(), 9u);
}

class PaperBlockTest
    : public ::testing::TestWithParam<models::NamedBlock> {};

TEST_P(PaperBlockTest, ExtractsAndInfersShapes) {
  const models::BlockExtraction ex = models::extract_paper_block(GetParam());
  EXPECT_NO_THROW(ex.block.validate());
  EXPECT_GE(ex.block.count_kind(OpKind::kConv2d), 1u);
  ASSERT_EQ(ex.input_shape.rank(), 4u);
  // The standalone block accepts its native shape.
  EXPECT_NO_THROW(infer_shapes(ex.block, ex.input_shape));
  // And scales to other batch sizes.
  EXPECT_NO_THROW(infer_shapes(ex.block, ex.input_shape.with_batch(16)));
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperBlocks, PaperBlockTest,
    ::testing::ValuesIn(models::paper_blocks()),
    [](const auto& info) { return info.param.label; });

TEST(NamedBlocksTest, BottleneckBlockHasExpectedStructure) {
  const auto& blocks = models::paper_blocks();
  const auto it =
      std::find_if(blocks.begin(), blocks.end(),
                   [](const auto& b) { return b.label == "Bottleneck4"; });
  ASSERT_NE(it, blocks.end());
  const models::BlockExtraction ex = models::extract_paper_block(*it);
  // ResNet50 bottleneck: 3 main convs + downsample conv.
  EXPECT_EQ(ex.block.count_kind(OpKind::kConv2d), 4u);
  EXPECT_EQ(ex.block.count_kind(OpKind::kAdd), 1u);
}

TEST(NamedBlocksTest, UnknownPrefixThrows) {
  const Graph g = models::build("resnet18");
  EXPECT_THROW(
      models::extract_named_block(g, "layer9.7", Shape::nchw(1, 3, 224, 224)),
      InvalidArgument);
}

TEST(NamedBlocksTest, BlockMetricsAreSubsetOfParent) {
  const Graph parent = models::build("resnet50");
  const models::BlockExtraction ex = models::extract_named_block(
      parent, "layer2.0", Shape::nchw(1, 3, 224, 224));
  EXPECT_LT(ex.block.parameter_count(), parent.parameter_count());
  EXPECT_GT(ex.block.parameter_count(), 0);
}

}  // namespace
}  // namespace convmeter
