// convmeter — command-line interface to the library.
//
//   convmeter list-models
//   convmeter metrics   --model resnet50 [--image 224] [--batch 64]
//   convmeter show      --model resnet50
//   convmeter campaign  --backend sim-gpu|sim-cpu|real --out samples.csv
//                       [--models a,b,c] [--images 32,64] [--batches 1,16]
//                       [--jobs N] [--training] [--nodes 1,2,4]
//   convmeter list-predictors
//   convmeter fit       --samples samples.csv --out model.json
//                       [--predictor NAME] [--training 1] [--phase NAME]
//   convmeter eval      --samples samples.csv [--predictor NAME]
//                       [--phase NAME]
//   convmeter predict   --model-file model.json --model x --image 224
//                       --batch 64 [--devices N --nodes M] [--dataset D]
//                       [--epochs E]
//   convmeter scalability --model-file model.json --model x --batch 64
//                       [--max-nodes 16] [--gpus-per-node 4]
//   convmeter trace     --model x --out trace.json [--batch 8] [--image N]
//                       [--device D] [--train 0|1]
//   convmeter stats     [--model x] [--batch N] [--image N] [--device D]
//                       [--json 1] [--out FILE] [--serve PORT]
//   convmeter profile   --model x [--model-file model.json] [--batch N]
//                       [--image N] [--reps N] [--device D] [--json 1]
//   convmeter lint      --model x | --graph FILE | --all 1 [--image N]
//                       [--batch N] [--training 1] [--notes 1] [--json 1]
//                       [--strict 1] [--budget-mb N] [--device D] [--memory 1]
//   convmeter memplan   --model x | --graph FILE [--image N] [--batch N]
//                       [--training 1] [--json 1] [--budget-mb N] [--device D]
//   convmeter tune      [--out tuning.json] [--shapes zoo|gemm|conv]
//                       [--trials N] [--jobs N]
//
// The campaign runs against any MeasurementBackend — the simulated devices
// or the real CPU executor (`--backend real`); fit, eval and predict work
// on any CSV in the documented sample format, so measurements from real
// hardware can be dropped in. `fit` writes a versioned JSON model file for
// any registered predictor family (see `list-predictors`), which `predict`
// and `scalability` reload. `trace` and `stats` run the *real* CPU
// executor with the observability layer enabled (see src/obs/). `lint`
// statically verifies graphs with the analysis layer (see src/analysis/)
// and exits nonzero when any error-severity finding exists; setting
// CONVMETER_PREFLIGHT=1 in the environment additionally verifies every
// graph right before the executor runs it.
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analysis/verifier.hpp"
#include "backend/backend.hpp"
#include "collect/campaign.hpp"
#include "collect/sample_stream.hpp"
#include "collect/store/store.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/convmeter.hpp"
#include "core/scalability.hpp"
#include "exec/executor.hpp"
#include "exec/thread_pool.hpp"
#include "exec/trainer.hpp"
#include "exec/tuning/autotune.hpp"
#include "exec/tuning/tuning.hpp"
#include "graph/dot.hpp"
#include "graph/serialize.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile/session.hpp"
#include "obs/residuals.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "predict/evaluate.hpp"
#include "predict/predictors.hpp"
#include "predict/registry.hpp"
#include "sim/residual_probe.hpp"

#include <fstream>
#include <sstream>

namespace convmeter::cli {
namespace {

/// Minimal --key value argument map.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      CM_CHECK(starts_with(key, "--"), "expected --option, got '" + key + "'");
      key = key.substr(2);
      CM_CHECK(i + 1 < argc, "option --" + key + " needs a value");
      values_[key] = argv[++i];
    }
  }

  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw InvalidArgument("missing required option --" + key);
    }
    return it->second;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  long long get_int(const std::string& key, long long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_int(it->second);
  }

  /// get_int for a quantity with a lower limit (sizes and budgets >= 1):
  /// a smaller value throws InvalidArgument naming the flag.
  long long get_int_at_least(const std::string& key, long long fallback,
                             long long min) const {
    const long long value = get_int(key, fallback);
    if (value < min) {
      throw InvalidArgument("--" + key + " must be >= " + std::to_string(min) +
                            ", got " + std::to_string(value));
    }
    return value;
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_list_models() {
  for (const auto& name : models::available_models()) {
    std::cout << name << '\n';
  }
  return 0;
}

int cmd_metrics(const Args& args) {
  const std::string name = args.require("model");
  const Graph g = models::build(name);
  const auto image = args.get_int("image", models::default_image_size(name));
  const auto batch = args.get_int("batch", 1);
  const GraphMetrics m = compute_metrics(
      g, Shape::nchw(batch, g.input_channels(), image, image));
  ConsoleTable t({"Metric", "Value"}, {Align::kLeft, Align::kRight});
  t.add_row({"model", name});
  t.add_row({"image", std::to_string(image)});
  t.add_row({"batch", std::to_string(batch)});
  t.add_row({"FLOPs (F)", format_flops(m.flops)});
  t.add_row({"conv inputs (I)", format_count(m.conv_inputs) + " elems"});
  t.add_row({"conv outputs (O)", format_count(m.conv_outputs) + " elems"});
  t.add_row({"weights (W)", format_count(m.weights)});
  t.add_row({"layers (L)", std::to_string(static_cast<long long>(m.layers))});
  t.add_row({"compute inputs", format_count(m.compute_inputs) + " elems"});
  t.add_row({"compute outputs", format_count(m.compute_outputs) + " elems"});
  t.print(std::cout);
  return 0;
}

int cmd_show(const Args& args) {
  std::cout << graph_to_text(models::build(args.require("model")));
  return 0;
}

int cmd_dot(const Args& args) {
  const std::string name = args.require("model");
  const Graph g = models::build(name);
  std::optional<ShapeMap> shapes;
  if (args.has("image")) {
    const auto image = args.get_int("image", 224);
    shapes = infer_shapes(
        g, Shape::nchw(args.get_int("batch", 1), g.input_channels(), image,
                       image));
  }
  if (args.has("out")) {
    save_dot(g, args.require("out"), shapes);
    std::cout << "wrote " << args.require("out") << '\n';
  } else {
    std::cout << graph_to_dot(g, shapes);
  }
  return 0;
}

std::vector<std::string> parse_model_list(const Args& args) {
  if (!args.has("models")) {
    return {"alexnet",       "vgg16",        "resnet18",
            "resnet50",      "squeezenet1_0", "mobilenet_v2",
            "efficientnet_b0", "densenet121", "regnet_x_8gf"};
  }
  return split(args.require("models"), ',');
}

std::vector<std::int64_t> parse_size_list(const Args& args,
                                          const std::string& key,
                                          std::vector<std::int64_t> fallback) {
  if (!args.has(key)) return fallback;
  std::vector<std::int64_t> sizes;
  for (const auto& v : split(args.require(key), ',')) {
    sizes.push_back(parse_int(v));
  }
  return sizes;
}

/// Pass-through sink that counts emissions. Campaigns stream straight into
/// the output sink with collect=false, so the count is otherwise lost.
class CountingSink : public SampleSink {
 public:
  explicit CountingSink(SampleSink& inner) : inner_(inner) {}
  void emit(const RuntimeSample& s) override {
    inner_.emit(s);
    ++count_;
  }
  void emit_indexed(const RuntimeSample& s, std::uint64_t point_index,
                    std::uint32_t repetition) override {
    inner_.emit_indexed(s, point_index, repetition);
    ++count_;
  }
  std::uint64_t count() const { return count_; }

 private:
  SampleSink& inner_;
  std::uint64_t count_ = 0;
};

int cmd_campaign(const Args& args) {
  // --backend picks the measurement backend (sim-gpu, sim-cpu, sim-edge,
  // real); --device stays as the legacy spelling for simulated presets.
  const std::string spec = args.get("backend", args.get("device", "a100"));
  const bool training = args.has("training");
  const std::unique_ptr<MeasurementBackend> backend =
      make_backend(spec, training);
  const std::string out = args.require("out");
  const std::string format = args.get("format", "csv");
  CM_CHECK(format == "csv" || format == "bin",
           "campaign --format must be csv or bin");

  CampaignOptions options;
  options.jobs = static_cast<int>(args.get_int("jobs", 1));
  options.verify = args.get_int("verify", 0) != 0;
  options.profile = args.get_int("profile", 0) != 0;
  if (options.profile) obs::set_enabled(true);
  if (args.has("shard")) {
    const auto parts = split(args.require("shard"), '/');
    CM_CHECK(parts.size() == 2, "--shard must be INDEX/COUNT, e.g. 0/4");
    options.shard_index = static_cast<int>(parse_int(parts[0]));
    options.shard_count = static_cast<int>(parse_int(parts[1]));
  }
  options.checkpoint = args.get("checkpoint", "");
  options.resume = args.get_int("resume", 0) != 0;
  options.checkpoint_interval =
      static_cast<int>(args.get_int("interval", 256));
  options.abort_after_flushes =
      static_cast<int>(args.get_int("abort-after", 0));
  // Samples stream straight into the output file; nothing is materialized,
  // so a million-point campaign runs in constant sample memory.
  options.collect = false;

  std::ofstream csv_file;
  std::unique_ptr<ShardWriter> writer;
  std::unique_ptr<SampleSink> sink;
  if (format == "bin") {
    writer = std::make_unique<ShardWriter>(out);
    sink = std::make_unique<ShardSampleSink>(*writer);
  } else {
    csv_file.open(out);
    CM_CHECK(csv_file.good(), "cannot open '" + out + "' for writing");
    sink = std::make_unique<CsvSampleSink>(csv_file);
  }
  CountingSink counting(*sink);
  options.sink = &counting;

  if (training) {
    TrainingSweep sweep;
    sweep.models = parse_model_list(args);
    sweep.image_sizes = parse_size_list(args, "images", {64, 128, 224});
    sweep.per_device_batch_sizes =
        parse_size_list(args, "batches", {16, 64, 256});
    sweep.node_counts.clear();
    for (const auto& n : split(args.get("nodes", "1"), ',')) {
      sweep.node_counts.push_back(static_cast<int>(parse_int(n)));
    }
    sweep.devices_per_node =
        static_cast<int>(args.get_int("gpus-per-node", 4));
    sweep.repetitions = static_cast<int>(args.get_int("reps", 3));
    run_training_campaign(*backend, sweep, options);
  } else {
    InferenceSweep sweep = InferenceSweep::paper_default(parse_model_list(args));
    sweep.image_sizes = parse_size_list(args, "images", sweep.image_sizes);
    sweep.batch_sizes = parse_size_list(args, "batches", sweep.batch_sizes);
    sweep.repetitions = static_cast<int>(args.get_int("reps", 3));
    run_inference_campaign(*backend, sweep, options);
  }
  if (writer != nullptr) writer->flush();
  std::cout << "wrote " << counting.count() << " samples to " << out;
  if (options.shard_count > 1) {
    std::cout << " (shard " << options.shard_index << "/"
              << options.shard_count << ")";
  }
  std::cout << '\n';
  return 0;
}

/// Sample input for fit/eval: a binary shard store (--store, streamed) or
/// a CSV file (--samples, materialized).
struct SampleSource {
  std::vector<RuntimeSample> owned;  ///< backing storage for the CSV path
  std::unique_ptr<SampleStream> stream;
  std::uint64_t count = 0;
};

SampleSource open_sample_source(const Args& args) {
  SampleSource src;
  if (args.has("store")) {
    auto stream = std::make_unique<StoreSampleStream>(args.require("store"));
    src.count = stream->record_count();
    src.stream = std::move(stream);
  } else {
    src.owned = load_samples(args.require("samples"));
    src.count = src.owned.size();
    src.stream = std::make_unique<VectorSampleStream>(src.owned);
  }
  return src;
}

/// Predictor construction knobs shared by fit and eval.
PredictorOptions predictor_options(const Args& args) {
  PredictorOptions options;
  if (args.has("phase")) {
    options.phase = phase_from_name(args.require("phase"));
  }
  return options;
}

/// Registry name selected by --predictor, defaulting to the ConvMeter
/// family matching the legacy --training switch.
std::string predictor_name(const Args& args) {
  return args.get("predictor",
                  args.has("training") ? "convmeter" : "convmeter-fwd-only");
}

int cmd_fit(const Args& args) {
  const SampleSource src = open_sample_source(args);
  const std::string name = predictor_name(args);
  const auto predictor = make_predictor(name, predictor_options(args));
  predictor->fit(*src.stream);
  const std::string out = args.require("out");
  save_predictor_file(*predictor, out);
  std::cout << "fitted '" << name << "' on " << src.count
            << " samples -> " << out << '\n';
  return 0;
}

int cmd_list_predictors() {
  ConsoleTable t({"Name", "Description"}, {Align::kLeft, Align::kLeft});
  for (const PredictorEntry& entry : PredictorRegistry::instance().entries()) {
    t.add_row({entry.name, entry.description});
  }
  t.print(std::cout);
  return 0;
}

int cmd_eval(const Args& args) {
  const SampleSource src = open_sample_source(args);
  const std::string name = predictor_name(args);
  LooOptions loo;
  // Store-backed evaluations default to streaming error accumulation (no
  // per-sample point vectors); CSV inputs keep the exact vector reports.
  loo.collect_points =
      args.get_int("collect-points", args.has("store") ? 0 : 1) != 0;
  const LooResult r =
      evaluate_loo(name, *src.stream, predictor_options(args), loo);
  ConsoleTable t({"ConvNet", "Samples", "R^2", "NRMSE", "MAPE"},
                 {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                  Align::kRight});
  for (const GroupEvaluation& g : r.per_group) {
    t.add_row({g.group, std::to_string(g.errors.count),
               ConsoleTable::fmt(g.errors.r2, 3),
               ConsoleTable::fmt(g.errors.nrmse, 3),
               ConsoleTable::fmt(g.errors.mape, 3)});
  }
  t.add_row({"(pooled)", std::to_string(r.pooled.count),
             ConsoleTable::fmt(r.pooled.r2, 3),
             ConsoleTable::fmt(r.pooled.nrmse, 3),
             ConsoleTable::fmt(r.pooled.mape, 3)});
  std::cout << "leave-one-ConvNet-out, predictor '" << name << "':\n";
  t.print(std::cout);
  if (r.skipped > 0) {
    std::cout << r.skipped << " held-out sample(s) skipped (predictor "
              << "rejected them)\n";
  }
  return 0;
}

/// Model-file path: --model-file, or the legacy --coeffs spelling.
std::string model_file_path(const Args& args) {
  if (args.has("model-file")) return args.require("model-file");
  if (args.has("coeffs")) return args.require("coeffs");
  throw InvalidArgument("missing required option --model-file");
}

QueryPoint make_query(const Args& args) {
  const std::string name = args.require("model");
  const Graph g = models::build(name);
  QueryPoint q;
  q.model = name;
  q.image_size =
      args.get_int_at_least("image", models::default_image_size(name), 1);
  q.metrics_b1 = compute_metrics_b1(g, q.image_size);
  q.per_device_batch =
      static_cast<double>(args.get_int_at_least("batch", 1, 1));
  q.num_devices = static_cast<int>(args.get_int("devices", 1));
  q.num_nodes = static_cast<int>(args.get_int("nodes", 1));
  return q;
}

int cmd_predict(const Args& args) {
  const auto predictor = load_predictor_file(model_file_path(args));
  const QueryPoint q = make_query(args);
  const auto* cm = dynamic_cast<const ConvMeterPredictor*>(predictor.get());
  if (cm == nullptr) {
    // Any non-ConvMeter family predicts a single number for its target
    // phase (t_infer for the inference baselines). Predict before printing
    // so a rejected query leaves no half-written line.
    const double seconds = predictor->predict(q.as_sample());
    std::cout << "predicted " << phase_name(predictor->target()) << " ('"
              << predictor->name() << "'): " << format_seconds(seconds)
              << '\n';
    return 0;
  }
  const ConvMeter& model = cm->model();
  const TrainPrediction p = model.predict_train_step(q);
  ConsoleTable t({"Phase", "Predicted"}, {Align::kLeft, Align::kRight});
  t.add_row({"forward", format_seconds(p.fwd)});
  t.add_row({"backward", format_seconds(p.bwd)});
  t.add_row({"gradient update", format_seconds(p.grad)});
  t.add_row({"bwd+grad (overlapped)", format_seconds(p.bwd_grad)});
  t.add_row({"training step", format_seconds(p.step)});
  if (args.has("dataset")) {
    const double dataset = static_cast<double>(args.get_int("dataset", 0));
    const double epoch = model.predict_epoch_seconds(q, dataset);
    t.add_row({"epoch", format_seconds(epoch)});
    const auto epochs = args.get_int("epochs", 0);
    if (epochs > 0) {
      t.add_row({"full training (" + std::to_string(epochs) + " epochs)",
                 format_seconds(epoch * static_cast<double>(epochs))});
    }
  }
  t.print(std::cout);
  return 0;
}

int cmd_scalability(const Args& args) {
  const auto predictor = load_predictor_file(model_file_path(args));
  const auto* cm = dynamic_cast<const ConvMeterPredictor*>(predictor.get());
  CM_CHECK(cm != nullptr,
           "scalability needs a 'convmeter' model file (fit --training 1)");
  const int gpus = static_cast<int>(args.get_int("gpus-per-node", 4));
  const ScalabilityAnalyzer analyzer(cm->model(), gpus);
  const QueryPoint q = make_query(args);
  const int max_nodes = static_cast<int>(args.get_int("max-nodes", 16));

  ConsoleTable t({"Nodes", "Step", "Throughput"});
  for (const ScalabilityPoint& p :
       analyzer.node_sweep(q.metrics_b1, q.per_device_batch, max_nodes)) {
    t.add_row({std::to_string(p.num_nodes), format_seconds(p.step_seconds),
               ConsoleTable::fmt(p.throughput, 0) + " img/s"});
  }
  t.print(std::cout);
  std::cout << "turning point: "
            << analyzer.turning_point(q.metrics_b1, q.per_device_batch,
                                      max_nodes)
            << " node(s)\n";
  return 0;
}

/// Runs one instrumented forward pass (and optionally a training step) of
/// `name`, recording spans and cost-model residuals into the global
/// observability state. Shared by `trace` and `stats`.
void run_instrumented_workload(const std::string& name, std::int64_t image,
                               std::int64_t batch, const DeviceSpec& device,
                               bool train) {
  const Graph g = models::build(name);
  const Shape shape = Shape::nchw(batch, g.input_channels(), image, image);

  Executor exec;
  const ExecutionResult run = exec.run_random(g, shape);

  // Per-layer residuals: what the roofline model predicts for `device` vs
  // what the CPU executor measured.
  std::vector<MeasuredLayerTime> measured;
  measured.reserve(run.layers.size());
  for (const LayerTiming& layer : run.layers) {
    measured.push_back({layer.node, layer.seconds});
  }
  record_layer_residuals(device, g, shape, measured);

  if (!train) return;
  // One full training step adds the nested fwd/bwd/grad-update spans.
  // All zoo architectures (ConvNets, ViTs, Mixers) have a CPU backward now.
  TrainerConfig config;
  Trainer trainer(g, config);
  Tensor input(shape);
  input.fill_random(1);
  std::vector<int> labels(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }
  trainer.step(input, labels);
}

int cmd_trace(const Args& args) {
  const std::string name = args.require("model");
  const std::string out = args.require("out");
  const auto image = args.get_int("image", models::default_image_size(name));
  const auto batch = args.get_int("batch", 8);
  const DeviceSpec device = device_by_name(args.get("device", "xeon_5318y"));
  const bool train = args.get_int("train", 1) != 0;

  obs::set_enabled(true);
  obs::Tracer::instance().clear();
  run_instrumented_workload(name, image, batch, device, train);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.write_chrome_trace(out);
  const auto events = tracer.snapshot();
  std::cout << "wrote " << events.size() << " spans to " << out;
  if (tracer.dropped() > 0) {
    std::cout << " (" << tracer.dropped() << " dropped by ring buffers)";
  }
  std::cout << "\nopen in chrome://tracing or https://ui.perfetto.dev\n";
  return 0;
}

int cmd_stats(const Args& args) {
  const std::string name = args.get("model", "resnet18");
  const auto image = args.get_int("image", 64);
  const auto batch = args.get_int("batch", 4);
  const DeviceSpec device = device_by_name(args.get("device", "xeon_5318y"));
  const bool train = args.get_int("train", 1) != 0;

  obs::set_enabled(true);
  run_instrumented_workload(name, image, batch, device, train);
  obs::FlightRecorder::instance().refresh_metrics_snapshot();

  auto& registry = obs::MetricsRegistry::instance();
  if (args.has("serve")) {
    // Blocking OpenMetrics endpoint over the populated registry; scrape
    // with e.g. `curl http://127.0.0.1:PORT/metrics`.
    obs::StatsServerOptions options;
    options.port = static_cast<int>(args.get_int("serve", 9464));
    options.max_requests = args.get_int("max-requests", -1);
    serve_stats(registry, options, std::cout);
    return 0;
  }
  if (args.has("out")) {
    std::ofstream f(args.require("out"));
    CM_CHECK(static_cast<bool>(f), "cannot write " + args.require("out"));
    f << registry.to_json() << '\n';
    std::cout << "wrote metrics JSON to " << args.require("out") << '\n';
  } else if (args.get_int("json", 0) != 0) {
    std::cout << registry.to_json() << '\n';
  } else {
    registry.print_table(std::cout);
  }
  return 0;
}

int cmd_profile(const Args& args) {
  const std::string name = args.require("model");
  const Graph g = models::build(name);
  obs::ProfileOptions options;
  options.image = args.get_int("image", models::default_image_size(name));
  options.batch = args.get_int("batch", 1);
  options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  options.repetitions = static_cast<int>(args.get_int("reps", 3));
  options.device = args.get("device", "xeon_5318y");
  options.counters = args.get_int("counters", 1) != 0;

  // The per-layer "predicted" column dissects a fitted model file; without
  // one the roofline simulator provides the estimates.
  std::unique_ptr<Predictor> predictor;
  if (args.has("model-file") || args.has("coeffs")) {
    predictor = load_predictor_file(model_file_path(args));
  } else if (args.has("predictor")) {
    predictor = load_predictor_file(args.require("predictor"));
  }

  const obs::ProfileReport report =
      obs::profile_model(name, g, options, predictor.get());
  if (args.has("out")) {
    std::ofstream f(args.require("out"));
    CM_CHECK(static_cast<bool>(f), "cannot write " + args.require("out"));
    f << report.render_json() << '\n';
    std::cout << "wrote profile JSON to " << args.require("out") << '\n';
  }
  if (args.get_int("json", 0) != 0) {
    std::cout << report.render_json() << '\n';
  } else {
    std::cout << report.render_text(
        static_cast<std::size_t>(args.get_int("top", 15)));
  }
  return 0;
}

/// --budget-mb in bytes; a budget below 1 MiB is rejected (0 would
/// otherwise read as "no budget" and pass any plan).
std::uint64_t budget_mb_bytes(const Args& args) {
  return static_cast<std::uint64_t>(
             args.get_int_at_least("budget-mb", 1024, 1))
         << 20;
}

int cmd_lint(const Args& args) {
  analysis::VerifyOptions base;
  base.training = args.get_int("training", 0) != 0;
  base.include_notes = args.get_int("notes", 0) != 0;
  if (args.has("device")) {
    base.device_memory_bytes = static_cast<std::uint64_t>(
        device_by_name(args.require("device")).memory_bytes);
  }
  if (args.get_int("memory", 0) != 0) {
    // Whole-model static peak check (memplan.over_budget): the budget is
    // --budget-mb when given, otherwise the active device's memory.
    if (args.has("budget-mb")) {
      base.memory_budget_bytes = budget_mb_bytes(args);
    } else if (base.device_memory_bytes != 0) {
      base.memory_budget_bytes = base.device_memory_bytes;
    } else {
      throw InvalidArgument(
          "lint --memory 1 needs --budget-mb N or --device NAME");
    }
  } else if (args.has("budget-mb")) {
    // Without --memory, --budget-mb keeps its original meaning: an
    // explicit per-thread workspace budget override.
    base.workspace_budget_bytes = budget_mb_bytes(args);
  }
  const bool as_json = args.get_int("json", 0) != 0;
  const bool strict = args.get_int("strict", 0) != 0;

  struct Target {
    Graph graph;
    std::int64_t image;
  };
  std::vector<Target> targets;
  if (args.get_int("all", 0) != 0) {
    for (const auto& name : models::available_models()) {
      targets.push_back({models::build(name), models::default_image_size(name)});
    }
  } else if (args.has("model")) {
    const std::string name = args.require("model");
    targets.push_back({models::build(name), models::default_image_size(name)});
  } else if (args.has("graph")) {
    // Lenient load: lint exists precisely to diagnose files the strict
    // deserializer would reject.
    targets.push_back({load_graph_unchecked(args.require("graph")), 224});
  } else {
    throw InvalidArgument("lint needs --model NAME, --graph FILE, or --all 1");
  }

  const analysis::Verifier verifier;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Target& target : targets) {
    analysis::VerifyOptions options = base;
    const auto image = args.get_int("image", target.image);
    const std::int64_t channels =
        target.graph.input_channels() > 0 ? target.graph.input_channels() : 3;
    options.input_shape =
        Shape::nchw(args.get_int("batch", 1), channels, image, image);
    const analysis::VerifyReport report =
        verifier.verify(target.graph, options);
    if (as_json) {
      std::cout << report.render_json() << '\n';
    } else {
      std::cout << report.render_text();
    }
    errors += report.sink.errors();
    warnings += report.sink.warnings();
  }
  if (errors > 0) return 1;
  if (strict && warnings > 0) return 1;
  return 0;
}

int cmd_memplan(const Args& args) {
  Graph g = [&] {
    if (args.has("model")) return models::build(args.require("model"));
    if (args.has("graph")) return load_graph(args.require("graph"));
    throw InvalidArgument("memplan needs --model NAME or --graph FILE");
  }();
  const std::int64_t image =
      args.get_int("image", args.has("model")
                                ? models::default_image_size(
                                      args.require("model"))
                                : 224);
  const std::int64_t channels =
      g.input_channels() > 0 ? g.input_channels() : 3;
  const Shape input_shape =
      Shape::nchw(args.get_int("batch", 1), channels, image, image);
  const bool training = args.get_int("training", 0) != 0;

  // With a budget in scope (explicit or device-derived), a plan that does
  // not fit is a failure, mirroring `lint --memory`. Resolved before the
  // plan prints, so a bad budget fails with nothing on stdout.
  std::uint64_t budget = 0;
  std::string budget_source;
  if (args.has("budget-mb")) {
    budget = budget_mb_bytes(args);
    budget_source = "--budget-mb";
  } else if (args.has("device")) {
    budget = static_cast<std::uint64_t>(
        device_by_name(args.require("device")).memory_bytes);
    budget_source = "device '" + args.require("device") + "'";
  }

  const analysis::MemPlan plan =
      analysis::plan_memory(g, input_shape, training);
  if (args.get_int("json", 0) != 0) {
    std::cout << analysis::render_memplan_json(g, plan) << '\n';
  } else {
    std::cout << analysis::render_memplan_text(g, plan);
  }

  if (budget != 0 && plan.total_peak_bytes() > budget) {
    std::cerr << "over budget: static peak "
              << analysis::format_mib(plan.total_peak_bytes()) << " exceeds "
              << analysis::format_mib(budget) << " (" << budget_source
              << ")\n";
    return 1;
  }
  return 0;
}

int cmd_store(const std::string& verb, const Args& args) {
  if (verb == "info") {
    const StoreInfo info = store_info(args.require("store"));
    ConsoleTable table({"Field", "Value"});
    table.add_row({"shards", std::to_string(info.shards)});
    table.add_row({"records", std::to_string(info.records)});
    if (info.records > 0) {
      table.add_row({"points", std::to_string(info.first_point) + ".." +
                                   std::to_string(info.last_point)});
    }
    table.add_row({"models", join(info.models, ",")});
    table.print(std::cout);
    return 0;
  }
  if (verb == "merge") {
    const std::vector<std::string> inputs =
        split(args.require("inputs"), ',');
    const std::string out = args.require("out");
    merge_shards(inputs, out);
    const StoreInfo info = store_info(out);
    std::cout << "merged " << inputs.size() << " shards (" << info.records
              << " records) -> " << out << '\n';
    return 0;
  }
  if (verb == "import") {
    const std::string out = args.require("out");
    import_csv_to_shard(args.require("csv"), out);
    std::cout << "imported " << args.require("csv") << " -> " << out << '\n';
    return 0;
  }
  if (verb == "export") {
    const std::string out = args.require("out");
    export_store_to_csv(args.require("store"), out);
    std::cout << "exported " << args.require("store") << " -> " << out
              << '\n';
    return 0;
  }
  throw InvalidArgument("store verb must be info, merge, import, or export");
}

int cmd_tune(const Args& args) {
  tuning::AutotuneOptions opts;
  opts.shapes = args.get("shapes", "zoo");
  opts.trials = static_cast<int>(args.get_int("trials", 3));
  ThreadPool pool(static_cast<std::size_t>(args.get_int("jobs", 0)));
  std::cout << "device: " << tuning::device_fingerprint() << '\n'
            << "sweeping " << opts.shapes << " shapes, median of "
            << opts.trials << " runs per candidate...\n";
  std::string report;
  const tuning::TuningTable table = tuning::autotune(pool, opts, &report);
  std::cout << report;
  const std::string out = args.get("out", "tuning.json");
  tuning::save_tuning_file(table, out);
  std::cout << "wrote " << out
            << " (point CONVMETER_TUNING_FILE at it to use it)\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage: convmeter <command> [--option value ...]\n"
      "commands:\n"
      "  list-models\n"
      "  metrics     --model NAME [--image N] [--batch N]\n"
      "  show        --model NAME\n"
      "  dot         --model NAME [--image N [--batch N]] [--out FILE]\n"
      "  campaign    --out FILE [--backend sim-gpu|sim-cpu|sim-edge|real]\n"
      "              [--device a100|xeon_5318y|jetson_edge] [--jobs N]\n"
      "              [--models a,b,c] [--images 32,64] [--batches 1,16]\n"
      "              [--training --nodes 1,2,4] [--reps N] [--verify 1]\n"
      "              [--profile 1] [--format csv|bin] [--shard I/N]\n"
      "              [--checkpoint FILE [--resume 1] [--interval N]]\n"
      "  store       info   --store PATH\n"
      "  store       merge  --inputs a.cms,b.cms --out merged.cms\n"
      "  store       import --csv FILE --out shard.cms\n"
      "  store       export --store PATH --out FILE\n"
      "  list-predictors\n"
      "  fit         --samples FILE | --store PATH\n"
      "              --out model.json [--predictor NAME]\n"
      "              [--training 1] [--phase NAME]\n"
      "  eval        --samples FILE | --store PATH [--predictor NAME]\n"
      "              [--phase NAME] [--collect-points 0|1]\n"
      "  predict     --model-file model.json --model NAME [--image N]\n"
      "              [--batch N] [--devices N --nodes M]\n"
      "              [--dataset D --epochs E]\n"
      "  scalability --model-file model.json --model NAME [--batch N]\n"
      "              [--max-nodes N]\n"
      "  trace       --model NAME --out FILE [--batch N] [--image N]\n"
      "              [--device D] [--train 0|1]\n"
      "  stats       [--model NAME] [--batch N] [--image N] [--device D]\n"
      "              [--json 1] [--out FILE] [--serve PORT [--max-requests N]]\n"
      "  profile     --model NAME [--model-file model.json] [--image N]\n"
      "              [--batch N] [--reps N] [--threads N] [--device D]\n"
      "              [--counters 0|1] [--json 1] [--out FILE] [--top N]\n"
      "  lint        --model NAME | --graph FILE | --all 1 [--image N]\n"
      "              [--batch N] [--training 1] [--notes 1] [--json 1]\n"
      "              [--strict 1] [--budget-mb N] [--device D]\n"
      "              [--memory 1]   (static peak vs --budget-mb/--device)\n"
      "  memplan     --model NAME | --graph FILE [--image N] [--batch N]\n"
      "              [--training 1] [--json 1] [--budget-mb N] [--device D]\n"
      "  tune        [--out tuning.json] [--shapes zoo|gemm|conv]\n"
      "              [--trials N] [--jobs N]\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  // Opt-in executor pre-flight: every Executor::run verifies its graph
  // first, so defective graphs fail with full diagnostics instead of a
  // first-violation throw from validate().
  if (std::getenv("CONVMETER_PREFLIGHT") != nullptr) {
    analysis::install_executor_preflight();
  }
  // Crash flight recorder: CONVMETER_FLIGHT_RECORDER=/path/to/dump.json
  // arms the span ring and installs fatal-signal handlers that write a
  // Chrome-trace postmortem there (see src/obs/flight_recorder.hpp).
  if (const char* fr = std::getenv("CONVMETER_FLIGHT_RECORDER")) {
    if (fr[0] != '\0') obs::install_flight_recorder(fr);
  }
  const std::string cmd = argv[1];
  if (cmd == "store") {
    if (argc < 3) return usage();
    return cmd_store(argv[2], Args(argc, argv, 3));
  }
  const Args args(argc, argv, 2);
  if (cmd == "list-models") return cmd_list_models();
  if (cmd == "list-predictors") return cmd_list_predictors();
  if (cmd == "metrics") return cmd_metrics(args);
  if (cmd == "show") return cmd_show(args);
  if (cmd == "dot") return cmd_dot(args);
  if (cmd == "campaign") return cmd_campaign(args);
  if (cmd == "fit") return cmd_fit(args);
  if (cmd == "eval") return cmd_eval(args);
  if (cmd == "predict") return cmd_predict(args);
  if (cmd == "scalability") return cmd_scalability(args);
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "lint") return cmd_lint(args);
  if (cmd == "memplan") return cmd_memplan(args);
  if (cmd == "tune") return cmd_tune(args);
  std::cerr << "unknown command: " << cmd << "\n";
  return usage();
}

}  // namespace
}  // namespace convmeter::cli

int main(int argc, char** argv) {
  try {
    return convmeter::cli::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
