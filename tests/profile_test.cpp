// Attribution-profiler tests: per-layer linear dissection summing to the
// whole-net prediction, ranked-residual report invariants, the JSON twin's
// bit-for-bit agreement with the text table, graceful hardware-counter
// degradation, the OpenMetrics stats server scraped over a real socket,
// and the crash flight recorder (direct dump and a forked SIGABRT child).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/convmeter.hpp"
#include "models/zoo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile/session.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "predict/predictors.hpp"
#include "predict/registry.hpp"

namespace convmeter {
namespace {

/// Restores a clean observability slate around every test; profile_model
/// force-enables tracing, so order independence needs an explicit reset.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::instance().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::instance().reset();
  }
};

/// A small, fast profiling subject: squeezenet at 32 px, one repetition.
obs::ProfileOptions fast_options() {
  obs::ProfileOptions options;
  options.image = 32;
  options.batch = 1;
  options.repetitions = 1;
  return options;
}

/// Synthetic samples following the paper's linear functional form so the
/// convmeter family fits exactly (same planting as predictor_test).
std::vector<RuntimeSample> planted_samples() {
  std::vector<RuntimeSample> samples;
  int mdl = 0;
  for (const double f : {1e9, 3e9, 9e9, 27e9}) {
    for (const double batch : {1.0, 4.0, 8.0, 32.0, 64.0}) {
      RuntimeSample s;
      s.model = "net" + std::to_string(mdl % 4);
      s.device = "synthetic";
      s.image_size = 64;
      s.global_batch = static_cast<std::int64_t>(batch);
      s.flops1 = f;
      s.inputs1 = f / 400.0;
      s.outputs1 = f / 320.0;
      s.weights = f / 80.0;
      s.layers = 40.0 + f / 1e9;
      s.t_fwd =
          batch * (1e-12 * f + 2e-9 * s.inputs1 + 3e-9 * s.outputs1) + 1e-4;
      s.t_infer = s.t_fwd;
      s.t_bwd = 2.0 * s.t_fwd;
      s.t_grad = 1e-5 * s.layers;
      s.t_step = s.t_fwd + s.t_bwd + s.t_grad;
      samples.push_back(s);
    }
    ++mdl;
  }
  return samples;
}

std::string shortest(double v) {
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

TEST_F(ProfileTest, RooflineOnlyReportInvariants) {
  const Graph g = models::build("squeezenet1_1");
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, fast_options(), nullptr);

  EXPECT_EQ(report.attribution, "roofline-only");
  EXPECT_TRUE(report.predictor.empty());
  ASSERT_EQ(report.layers.size(), g.size());
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.predicted_total_seconds, 0.0);

  // Per-layer measured means must account for (nearly) all of the wall
  // time: the executor's loop overhead between layers is the only gap.
  EXPECT_GT(report.layer_sum_seconds, 0.0);
  EXPECT_LE(report.layer_sum_seconds, report.wall_seconds * 1.05);
  EXPECT_GE(report.layer_sum_seconds, report.wall_seconds * 0.5);

  double fraction_sum = 0.0;
  double measured_sum = 0.0;
  for (const obs::LayerAttribution& row : report.layers) {
    fraction_sum += row.wall_fraction;
    measured_sum += row.measured_seconds;
    EXPECT_GE(row.measured_seconds, 0.0);
  }
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
  EXPECT_NEAR(measured_sum, report.layer_sum_seconds, 1e-12);

  // The report's spine: rows ranked by |residual| descending.
  for (std::size_t i = 1; i < report.layers.size(); ++i) {
    EXPECT_GE(std::fabs(report.layers[i - 1].residual_seconds),
              std::fabs(report.layers[i].residual_seconds));
  }

  // Rollups partition the rows.
  std::size_t rolled_ops = 0;
  for (const obs::OpFamilyRollup& fam : report.rollups) {
    rolled_ops += fam.ops;
  }
  EXPECT_EQ(rolled_ops, report.layers.size());
}

TEST_F(ProfileTest, LinearDissectionSumsToWholeNetPrediction) {
  const auto predictor = make_predictor("convmeter", PredictorOptions{});
  ASSERT_NE(predictor, nullptr);
  predictor->fit(planted_samples());

  const Graph g = models::build("squeezenet1_1");
  const obs::ProfileOptions options = fast_options();
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, options, predictor.get());

  EXPECT_EQ(report.attribution, "linear-dissection");
  EXPECT_EQ(report.predictor, "convmeter");

  // The dissected per-layer estimates must reassemble the exact whole-net
  // *inference* prediction at this operating point — the invariant that
  // makes the drill-down trustworthy. (The convmeter family's predict()
  // targets the training step; the profiler measures a forward pass, so
  // its dissection is of the forward model.)
  QueryPoint q;
  q.metrics_b1 = compute_metrics_b1(g, options.image);
  q.per_device_batch = static_cast<double>(options.batch);
  const auto* cm = dynamic_cast<const ConvMeterPredictor*>(predictor.get());
  ASSERT_NE(cm, nullptr);
  const double whole_net = cm->model().predict_inference(q);
  ASSERT_GT(whole_net, 0.0);

  double layer_sum = 0.0;
  for (const obs::LayerAttribution& row : report.layers) {
    layer_sum += row.predicted_seconds;
  }
  EXPECT_NEAR(layer_sum, whole_net, std::fabs(whole_net) * 1e-6);
  EXPECT_NEAR(report.predicted_total_seconds, whole_net,
              std::fabs(whole_net) * 1e-6);
}

TEST_F(ProfileTest, OpaquePredictorSplitsByRoofline) {
  // paleo exposes no linear form, so its one whole-net number is split
  // across layers in proportion to the roofline view of each kernel.
  const auto predictor = make_predictor("paleo", PredictorOptions{});
  ASSERT_NE(predictor, nullptr);

  const Graph g = models::build("squeezenet1_1");
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, fast_options(), predictor.get());
  EXPECT_EQ(report.attribution, "roofline-split");
  double layer_sum = 0.0;
  for (const obs::LayerAttribution& row : report.layers) {
    layer_sum += row.predicted_seconds;
  }
  EXPECT_NEAR(layer_sum, report.predicted_total_seconds,
              std::fabs(report.predicted_total_seconds) * 1e-9);
}

TEST_F(ProfileTest, SingleMetricBaselineDissectsLinearly) {
  // flops-only is a PhaseLinearPredictor with a FLOPs-only feature set, so
  // the profiler dissects its coefficients rather than splitting by
  // roofline, and the per-layer estimates reassemble its prediction.
  const auto predictor = make_predictor("flops-only", PredictorOptions{});
  predictor->fit(planted_samples());

  const Graph g = models::build("squeezenet1_1");
  const obs::ProfileOptions options = fast_options();
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, options, predictor.get());
  EXPECT_EQ(report.attribution, "linear-dissection");
  EXPECT_EQ(report.predictor, "flops-only");

  QueryPoint q;
  q.metrics_b1 = compute_metrics_b1(g, options.image);
  q.per_device_batch = static_cast<double>(options.batch);
  const double whole_net = predictor->predict(q.as_sample());
  ASSERT_GT(whole_net, 0.0);
  double layer_sum = 0.0;
  for (const obs::LayerAttribution& row : report.layers) {
    layer_sum += row.predicted_seconds;
  }
  EXPECT_NEAR(layer_sum, whole_net, std::fabs(whole_net) * 1e-6);
  EXPECT_NEAR(report.predicted_total_seconds, whole_net,
              std::fabs(whole_net) * 1e-6);
}

TEST_F(ProfileTest, UnfittedPredictorIsRejected) {
  const auto predictor = make_predictor("convmeter", PredictorOptions{});
  const Graph g = models::build("squeezenet1_1");
  EXPECT_THROW(
      obs::profile_model("squeezenet1_1", g, fast_options(), predictor.get()),
      Error);
}

TEST_F(ProfileTest, JsonReportMatchesStructAndTextBitForBit) {
  const Graph g = models::build("squeezenet1_1");
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, fast_options(), nullptr);

  const json::Value doc = json::parse(report.render_json());
  EXPECT_EQ(doc.at("format").as_string(), obs::kProfileFormatName);
  EXPECT_EQ(doc.at("version").as_number(), obs::kProfileFormatVersion);
  EXPECT_EQ(doc.at("model").as_string(), "squeezenet1_1");
  EXPECT_TRUE(doc.at("predictor").is_null());

  const auto& rows = doc.at("layers").as_array();
  ASSERT_EQ(rows.size(), report.layers.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Shortest round-trip formatting parses back to the identical double,
    // so exact equality — not NEAR — is the correct assertion.
    EXPECT_EQ(rows[i].at("residual_seconds").as_number(),
              report.layers[i].residual_seconds);
    EXPECT_EQ(rows[i].at("node").as_number(),
              static_cast<double>(report.layers[i].node));
  }

  // The text table prints the same shortest-form residuals, so the top
  // row's residual string appears verbatim in both renderings.
  const std::string text = report.render_text(5);
  const std::string top_residual = shortest(report.layers[0].residual_seconds);
  EXPECT_NE(text.find(top_residual), std::string::npos);
  EXPECT_NE(report.render_json().find(top_residual), std::string::npos);
}

TEST_F(ProfileTest, CountersDegradeGracefully) {
  const Graph g = models::build("squeezenet1_1");
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, fast_options(), nullptr);

  if (report.counters_supported) {
    // Real hardware: the conv layers must have retired instructions.
    bool saw_cycles = false;
    for (const obs::LayerAttribution& row : report.layers) {
      if (row.counters.valid && row.counters.cycles > 0) saw_cycles = true;
    }
    EXPECT_TRUE(saw_cycles);
  } else {
    // Containers and locked-down kernels: a note says why, every row is
    // cleanly marked unmeasured, and the run still succeeds.
    EXPECT_FALSE(report.counters_note.empty());
    for (const obs::LayerAttribution& row : report.layers) {
      EXPECT_FALSE(row.counters.valid);
      EXPECT_EQ(row.measured_intensity, 0.0);
    }
  }
}

TEST_F(ProfileTest, CountersCanBeDisabled) {
  const Graph g = models::build("squeezenet1_1");
  obs::ProfileOptions options = fast_options();
  options.counters = false;
  const obs::ProfileReport report =
      obs::profile_model("squeezenet1_1", g, options, nullptr);
  EXPECT_FALSE(report.counters_supported);
  EXPECT_EQ(report.counters_note, "disabled by --counters 0");
}

// ---- stats server -----------------------------------------------------------

TEST_F(ProfileTest, StatsServerServesOpenMetricsOverSocket) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("scrape.test.counter").add(3);
  registry.histogram("scrape.test.seconds").observe(0.002);

  obs::StatsServerOptions options;
  options.port = 0;  // ephemeral
  options.max_requests = 1;
  obs::StatsServer server(registry, options);
  server.bind();
  ASSERT_GT(server.port(), 0);

  std::thread serve_thread([&server] { server.serve(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char* request =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  ASSERT_GT(::send(fd, request, std::strlen(request), 0), 0);

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  serve_thread.join();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(response.find(
                "convmeter_scrape_test_counter_total 3"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE convmeter_scrape_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(response.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(response.find("# EOF"), std::string::npos);
}

// ---- flight recorder --------------------------------------------------------

TEST_F(ProfileTest, FlightRecorderDirectDump) {
  const std::string path =
      ::testing::TempDir() + "profile_test_fr_direct.json";
  std::remove(path.c_str());

  auto& recorder = obs::FlightRecorder::instance();
  recorder.arm(path);
  {
    obs::TraceSpan span("fr.test.outer", "test");
    obs::TraceSpan inner("fr.test.inner", "test");
  }
  obs::MetricsRegistry::instance().counter("fr.test.counter").add(11);
  recorder.refresh_metrics_snapshot();
  ASSERT_TRUE(recorder.dump(0));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool saw_span = false;
  for (const json::Value& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    if (e.at("name").as_string() == "fr.test.inner") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_EQ(doc.at("otherData").at("signal").as_number(), 0.0);
  EXPECT_EQ(doc.at("otherData").at("metrics").at("fr.test.counter")
                .as_number(),
            11.0);
  std::remove(path.c_str());
}

TEST_F(ProfileTest, FlightRecorderDumpsOnFatalSignal) {
  const std::string path = ::testing::TempDir() + "profile_test_fr_crash.json";
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm, record a span, then die the way a real crash does. The
    // handler must write the dump and re-raise so the exit status still
    // says SIGABRT.
    obs::install_flight_recorder(path);
    {
      obs::TraceSpan span("fr.crash.marker", "test");
    }
    std::abort();
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler did not write " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());
  EXPECT_EQ(doc.at("otherData").at("signal").as_number(),
            static_cast<double>(SIGABRT));
  bool saw_marker = false;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() == "fr.crash.marker") saw_marker = true;
  }
  EXPECT_TRUE(saw_marker);
  std::remove(path.c_str());
}

TEST_F(ProfileTest, FlightRecorderRejectsOverlongPath) {
  EXPECT_THROW(obs::FlightRecorder::instance().arm(std::string(1024, 'x')),
               Error);
}

}  // namespace
}  // namespace convmeter
