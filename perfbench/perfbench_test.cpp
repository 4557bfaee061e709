// Self-tests of the benchmark: metric names, the result schema, seeded
// inputs, and that the decorators pass every call through unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "backend/backend.hpp"
#include "collect/campaign.hpp"
#include "collect/store/store.hpp"
#include "common/json.hpp"
#include "core/convmeter.hpp"
#include "decorators.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace convmeter;

TEST(MetricNames, EveryTableEntryIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *table) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(valid_unit(m.unit)) << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "repeated " << m.name;
    }
  }
  EXPECT_EQ(end_to_end_metrics().front().name, "setup_s");
}

TEST(MetricNames, CharsetIsEnforced) {
  EXPECT_TRUE(valid_metric_name("exec.trainer.bwd_ms"));
  EXPECT_TRUE(valid_metric_name("0-start.is_ok"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/inside"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("per second"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(ResultSchema, HasExactlyTheFourKeys) {
  const std::string line =
      result_json(true, 3, 0, {{"latency_ms", "ms", 1.5}, {"setup_s", "s", 0.25}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

TEST(ResultSchema, RejectsRepeatedBadOrNonFiniteMetrics) {
  EXPECT_THROW(result_json(true, 1, 0, {{"a", "s", 1}, {"a", "s", 2}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", "s", 1}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", "no unit", 1}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", "s", std::nan("")}}), std::invalid_argument);
}

TEST(Stats, MedianAndQuantile) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Seeds, ChangeTheInputsDeterministically) {
  for (const std::string& w : workload_names()) {
    EXPECT_EQ(input_digest(w, 7), input_digest(w, 7)) << w;
    EXPECT_NE(input_digest(w, 7), input_digest(w, 8)) << w;
  }
  EXPECT_THROW(input_digest("nope", 1), std::invalid_argument);
}

class DecoratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() /
           ("perfbench_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  /// Runs a small campaign into a shard, optionally through the decorators.
  std::string campaign(const std::string& name, bool training, bool decorated) {
    const std::string path = (dir_ / (name + ".cms")).string();
    auto backend = make_backend("sim-gpu", training);
    ShardWriter writer(path);
    ShardSampleSink sink(writer);
    TimedBackend timed_backend(*backend);
    TimedSink timed_sink(sink);
    CampaignOptions options;
    options.jobs = 3;
    options.collect = false;
    options.sink = decorated ? static_cast<SampleSink*>(&timed_sink) : &sink;
    MeasurementBackend& b = decorated ? static_cast<MeasurementBackend&>(timed_backend)
                                      : *backend;
    if (training) {
      TrainingSweep sweep = TrainingSweep::paper_distributed({"alexnet", "resnet18"});
      sweep.image_sizes = {64};
      sweep.node_counts = {1, 4};
      run_training_campaign(b, sweep, options);
    } else {
      InferenceSweep sweep;
      sweep.models = {"alexnet", "resnet18", "squeezenet1_1"};
      sweep.image_sizes = {64, 128};
      sweep.batch_sizes = {1, 8};
      sweep.repetitions = 2;
      run_inference_campaign(b, sweep, options);
    }
    writer.flush();
    if (decorated) {
      const std::uint64_t calls =
          training ? timed_backend.train_calls() : timed_backend.infer_calls();
      EXPECT_EQ(calls, writer.record_count());
      EXPECT_EQ(timed_sink.samples(), writer.record_count());
      EXPECT_GT(training ? timed_backend.train_seconds() : timed_backend.infer_seconds(), 0.0);
    }
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(DecoratorTest, DecoratedCampaignsWriteIdenticalShards) {
  for (const bool training : {false, true}) {
    const std::string plain = campaign("plain", training, false);
    const std::string decorated = campaign("decorated", training, true);
    EXPECT_GT(shard_record_count(plain), 0u);
    EXPECT_EQ(bytes(plain), bytes(decorated)) << (training ? "training" : "inference");
  }
}

TEST_F(DecoratorTest, CountingStreamFitsTheSameModel) {
  const std::string path = campaign("fit", false, false);
  StoreSampleStream plain(path);
  StoreSampleStream inner(path);
  CountingStream counted(inner);
  const ConvMeter a = ConvMeter::fit_inference(plain);
  const ConvMeter b = ConvMeter::fit_inference(counted);
  EXPECT_EQ(json::dump(a.to_json()), json::dump(b.to_json()));
  EXPECT_GT(counted.resets(), 0u);
  EXPECT_EQ(counted.records(), counted.resets() * shard_record_count(path));
}

}  // namespace
}  // namespace perfbench
