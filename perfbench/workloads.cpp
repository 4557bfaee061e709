#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "backend/backend.hpp"
#include "collect/campaign.hpp"
#include "collect/graph_cache.hpp"
#include "collect/sample_stream.hpp"
#include "collect/store/store.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/convmeter.hpp"
#include "core/scalability.hpp"
#include "decorators.hpp"
#include "exec/executor.hpp"
#include "exec/trainer.hpp"
#include "metrics/metrics.hpp"
#include "models/zoo.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "predict/evaluate.hpp"
#include "replay.hpp"
#include "tensor/alloc_tracker.hpp"

namespace perfbench {

using namespace convmeter;

namespace {

constexpr int kSetupReps = 5;          // set-ups per run, at least ...
constexpr double kSetupSeconds = 2.0;  // ... and for at least this long
constexpr int kMinOps = 5;      // a run measures at least this many ops
constexpr std::size_t kTrainLossChecks = 3;  // trainer steps cross-checked
constexpr double kGradientRelTol = 1e-5;
const PredictorOptions kDefaultPredictor;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over raw bytes, for input digests.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  void add(const Tensor& t) { add(t.data().data(), t.data().size_bytes()); }
  template <typename T>
  void add_value(const T& v) { add(&v, sizeof(v)); }
};

bool all_finite(const Tensor& t) {
  for (const float v : t.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) == 0;
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// ||a - b|| / ||b|| in the L2 norm (0 when both are zero).
double relative_l2(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<double>::infinity();
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < b.data().size(); ++i) {
    const double d = static_cast<double>(a.data()[i]) - b.data()[i];
    diff += d * d;
    norm += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  return diff == 0.0 ? 0.0 : std::sqrt(diff / norm);
}

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

Tensor seeded_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  t.fill_random(seed);
  return t;
}

// ---- infer_real -------------------------------------------------------------

constexpr std::int64_t kResnetBatch = 8, kResnetImage = 64;
constexpr std::int64_t kVitBatch = 4, kVitImage = 224;

Shape resnet_shape() { return Shape::nchw(kResnetBatch, 3, kResnetImage, kResnetImage); }
Shape vit_shape() { return Shape::nchw(kVitBatch, 3, kVitImage, kVitImage); }

struct InferInputs {
  Tensor resnet_x, vit_x;
  std::uint64_t weight_seed = 0;
  explicit InferInputs(std::uint64_t seed)
      : resnet_x(seeded_tensor(resnet_shape(), mix(seed, 1))),
        vit_x(seeded_tensor(vit_shape(), mix(seed, 2))),
        weight_seed(mix(seed, 3)) {}
};

/// One round = one resnet18 pass and one vit_s_16 pass on Executor(4).
class InferReal {
 public:
  explicit InferReal(std::uint64_t seed) : in_(seed) {}

  void setup() {
    Span span("setup.infer_real");
    exec_.reset();
    resnet_ = models::build("resnet18");
    vit_ = models::build("vit_s_16");
    exec_ = std::make_unique<Executor>(kPoolThreads);
    ref_resnet_ = exec_->run(resnet_, in_.resnet_x, in_.weight_seed).output;
    ref_vit_ = exec_->run(vit_, in_.vit_x, in_.weight_seed).output;
  }

  double op(Checks& checks) {
    Span span("op.infer_round");
    const Tensor r = exec_->run(resnet_, in_.resnet_x, in_.weight_seed).output;
    checks.expect(all_finite(r) && bit_equal(r, ref_resnet_),
                  "resnet18 pass is finite and bit-equal to the first pass");
    const Tensor v = exec_->run(vit_, in_.vit_x, in_.weight_seed).output;
    checks.expect(all_finite(v) && bit_equal(v, ref_vit_),
                  "vit_s_16 pass is finite and bit-equal to the first pass");
    return static_cast<double>(kResnetBatch + kVitBatch);
  }

  void verify(Checks& checks) {
    Executor one(1);
    checks.expect(bit_equal(one.run(resnet_, in_.resnet_x, in_.weight_seed).output,
                            ref_resnet_),
                  "resnet18 Executor(1) output is bit-equal to Executor(4)");
    checks.expect(bit_equal(one.run(vit_, in_.vit_x, in_.weight_seed).output, ref_vit_),
                  "vit_s_16 Executor(1) output is bit-equal to Executor(4)");
  }

 private:
  InferInputs in_;
  Graph resnet_{"resnet18"};
  Graph vit_{"vit_s_16"};
  std::unique_ptr<Executor> exec_;
  Tensor ref_resnet_, ref_vit_;
};

// ---- train_real -------------------------------------------------------------

constexpr std::int64_t kTrainBatch = 8, kTrainImage = 64;
constexpr int kClasses = 1000;

struct TrainInputs {
  Tensor x;
  std::vector<int> labels;
  std::uint64_t weight_seed = 0;
  explicit TrainInputs(std::uint64_t seed)
      : x(seeded_tensor(Shape::nchw(kTrainBatch, 3, kTrainImage, kTrainImage),
                        mix(seed, 11))),
        weight_seed(mix(seed, 12)) {
    Rng rng(mix(seed, 13));
    for (std::int64_t i = 0; i < kTrainBatch; ++i) {
      labels.push_back(static_cast<int>(rng.uniform_int(0, kClasses - 1)));
    }
  }
};

TrainerConfig trainer_config(std::uint64_t weight_seed, std::size_t threads) {
  TrainerConfig config;
  config.optimizer = TrainerConfig::Optimizer::kAdam;
  config.num_threads = threads;
  config.weight_seed = weight_seed;
  return config;
}

/// One op = one Trainer(resnet18, Adam, 4 threads)::step on a fixed batch.
class TrainReal {
 public:
  explicit TrainReal(std::uint64_t seed) : in_(seed) {}

  void setup() {
    Span span("setup.train_real");
    trainer_.reset();
    trainer_ = std::make_unique<Trainer>(models::build("resnet18"),
                                         trainer_config(in_.weight_seed, kPoolThreads));
    losses_ = {trainer_->step(in_.x, in_.labels).loss};
  }

  double op(Checks& checks) {
    Span span("op.train_step");
    const double loss = trainer_->step(in_.x, in_.labels).loss;
    checks.expect(std::isfinite(loss), "training loss is finite");
    losses_.push_back(loss);
    return static_cast<double>(kTrainBatch);
  }

  /// The invariants the trainer documents across thread counts: the first
  /// loss (a pure forward pass) is bit-equal to a 1-thread trainer's, and
  /// the first gradients agree to rounding (conv backward reduces per-slot
  /// grad_weight partials in a thread-count-dependent order; DESIGN.md,
  /// "Parallel decomposition"). Later losses are not compared with 1
  /// thread: Adam's first steps move every parameter by about the learning
  /// rate whatever its gradient's size, so rounding-level gradient
  /// differences grow into visible loss differences. At a fixed thread
  /// count the whole run is deterministic: a second 4-thread trainer repeats
  /// the first losses bit for bit.
  void verify(Checks& checks) {
    Trainer again(models::build("resnet18"), trainer_config(in_.weight_seed, kPoolThreads));
    for (std::size_t k = 0; k < kTrainLossChecks && k < losses_.size(); ++k) {
      checks.expect(bit_equal(again.step(in_.x, in_.labels).loss, losses_[k]),
                    "training loss " + std::to_string(k) +
                        " is bit-equal to a second 4-thread trainer's");
    }
    Trainer four(models::build("resnet18"), trainer_config(in_.weight_seed, kPoolThreads));
    Trainer one(models::build("resnet18"), trainer_config(in_.weight_seed, 1));
    Trainer::GradientMap g4, g1;
    const double loss4 = four.compute_gradients(in_.x, in_.labels, &g4).loss;
    const double loss1 = one.compute_gradients(in_.x, in_.labels, &g1).loss;
    checks.expect(bit_equal(loss1, loss4) && bit_equal(loss4, losses_.front()),
                  "first training loss is bit-equal to a 1-thread trainer's");
    double worst = 0.0;
    bool same_layout = g4.size() == g1.size();
    for (const auto& [node, grads] : g4) {
      const auto it = g1.find(node);
      same_layout = same_layout && it != g1.end() && it->second.size() == grads.size();
      for (std::size_t i = 0; same_layout && i < grads.size(); ++i) {
        worst = std::max(worst, relative_l2(grads[i], it->second[i]));
      }
    }
    checks.expect(same_layout && worst <= kGradientRelTol,
                  "first gradients match a 1-thread trainer's to rounding (worst "
                  "relative L2 difference " + std::to_string(worst) + ")");
  }

 private:
  TrainInputs in_;
  std::unique_ptr<Trainer> trainer_;
  std::vector<double> losses_;
};

// ---- predictor pipeline (layer probe of traced runs) ------------------------

struct PipelineSpec {
  InferenceSweep infer;
  TrainingSweep train;
  std::vector<std::string> query_models;
  std::vector<double> query_batches;  ///< per-device batch per query model
  static constexpr int kMaxNodes = 16;
  static constexpr int kDevicesPerNode = 4;

  explicit PipelineSpec(std::uint64_t seed) {
    // Few distinct points, many repetitions: heavily shared work.
    infer.models = {"alexnet",  "vgg16",        "resnet18",   "resnet50",
                    "densenet121", "mobilenet_v2", "squeezenet1_1", "googlenet"};
    infer.image_sizes = {64, 224};
    infer.batch_sizes = {1, 16, 64};
    infer.repetitions = 16;
    infer.seed = mix(seed, 21);
    // paper_distributed-style: many distinct points, few repetitions.
    train = TrainingSweep::paper_distributed(
        {"alexnet", "vgg11", "vgg16", "resnet18", "resnet34", "resnet50",
         "densenet121", "mobilenet_v2", "squeezenet1_1", "googlenet"});
    train.repetitions = 1;
    train.seed = mix(seed, 22);
    query_models = models::available_models();
    Rng rng(mix(seed, 23));
    for (std::size_t i = 0; i < query_models.size(); ++i) {
      query_batches.push_back(static_cast<double>(16 << rng.uniform_int(0, 3)));
    }
  }
};

/// Layer figures of one pipeline iteration. The decorator-fed fields stay
/// zero on undecorated iterations.
struct PipelineStats {
  std::uint64_t infer_records = 0, train_records = 0;
  double campaign_infer_s = 0, campaign_train_s = 0;
  std::uint64_t infer_calls = 0, train_calls = 0;
  double infer_busy_s = 0, train_busy_s = 0;
  double store_write_s = 0, store_bytes = 0;
  double store_read_s = 0;
  std::uint64_t records_read = 0;
  double fit_infer_s = 0, fit_train_s = 0;  ///< self time (minus reads)
  double fit_resets = 0, loo_resets = 0;    ///< stream resets, all fits / LOOs
  double loo_infer_s = 0, loo_train_s = 0;  ///< self time (minus reads)
  double loo_mape_infer = 0, loo_mape_train = 0;
  std::vector<double> build_s, metrics_s, sweep_s, query_s;
  bool queries_ok = true;
};

class Pipeline {
 public:
  Pipeline(std::uint64_t seed, std::string dir)
      : spec_(seed),
        dir_(std::move(dir)),
        infer_backend_(make_backend("sim-gpu", false)),
        train_backend_(make_backend("sim-gpu", true)) {
    const std::uint64_t infer_points = feasible_points(
        *infer_backend_, spec_.infer.models, spec_.infer.image_sizes,
        spec_.infer.batch_sizes, false);
    const std::uint64_t train_points = feasible_points(
        *train_backend_, spec_.train.models, spec_.train.image_sizes,
        spec_.train.per_device_batch_sizes, true);
    expected_infer_ = infer_points * static_cast<std::uint64_t>(spec_.infer.repetitions);
    expected_train_ = train_points * spec_.train.node_counts.size() *
                      static_cast<std::uint64_t>(spec_.train.repetitions);
  }

  std::string shard(const std::string& tag, const char* kind) const {
    return dir_ + "/" + tag + "-" + kind + ".cms";
  }

  /// One predictor job. `decorated` routes the backend, sinks and streams
  /// through the timing decorators and fills the layer fields of the stats.
  PipelineStats iterate(const std::string& tag, bool decorated) {
    Span span("op.pipeline");
    PipelineStats st;
    GraphCache::instance().clear();
    CampaignOptions options;
    options.jobs = kCampaignJobs;
    options.collect = false;
    const auto campaign = [&](MeasurementBackend& backend, const char* kind,
                              const std::function<void(MeasurementBackend&,
                                                       const CampaignOptions&)>& run) {
      Span campaign_span(std::string("collect.campaign_") + kind);
      ShardWriter writer(shard(tag, kind));
      ShardSampleSink plain_sink(writer);
      std::optional<TimedBackend> timed_backend;
      std::optional<TimedSink> timed_sink;
      CampaignOptions o = options;
      o.sink = &plain_sink;
      MeasurementBackend* b = &backend;
      if (decorated) {
        timed_backend.emplace(backend);
        timed_sink.emplace(plain_sink);
        b = &*timed_backend;
        o.sink = &*timed_sink;
      }
      const TimePoint t0 = Clock::now();
      run(*b, o);
      writer.flush();
      const double wall = elapsed_seconds(t0);
      if (decorated) {
        st.store_write_s += timed_sink->seconds();
        st.infer_calls += timed_backend->infer_calls();
        st.train_calls += timed_backend->train_calls();
        st.infer_busy_s += timed_backend->infer_seconds();
        st.train_busy_s += timed_backend->train_seconds();
      }
      st.store_bytes += static_cast<double>(std::filesystem::file_size(writer.path()));
      return std::make_pair(writer.record_count(), wall);
    };
    std::tie(st.infer_records, st.campaign_infer_s) =
        campaign(*infer_backend_, "infer", [&](MeasurementBackend& b, const CampaignOptions& o) {
          run_inference_campaign(b, spec_.infer, o);
        });
    std::tie(st.train_records, st.campaign_train_s) =
        campaign(*train_backend_, "train", [&](MeasurementBackend& b, const CampaignOptions& o) {
          run_training_campaign(b, spec_.train, o);
        });

    StoreSampleStream infer_store(shard(tag, "infer"));
    StoreSampleStream train_store(shard(tag, "train"));
    std::optional<CountingStream> infer_count, train_count;
    SampleStream* infer_stream = &infer_store;
    SampleStream* train_stream = &train_store;
    if (decorated) {
      infer_stream = &infer_count.emplace(infer_store);
      train_stream = &train_count.emplace(train_store);
    }
    // Self time of a stage: its wall time minus the stream reads inside it.
    const auto staged = [&](const char* name, CountingStream* counter,
                            const std::function<void()>& stage) {
      Span stage_span(name);
      const double read0 = counter ? counter->seconds() : 0.0;
      const TimePoint t0 = Clock::now();
      stage();
      return elapsed_seconds(t0) - (counter ? counter->seconds() - read0 : 0.0);
    };
    CountingStream* ic = infer_count ? &*infer_count : nullptr;
    CountingStream* tc = train_count ? &*train_count : nullptr;
    std::optional<ConvMeter> infer_model, train_model;
    st.fit_infer_s = staged("regress.fit_inference", ic, [&] {
      infer_model = ConvMeter::fit_inference(*infer_stream);
    });
    st.fit_train_s = staged("regress.fit_training", tc, [&] {
      train_model = ConvMeter::fit_training(*train_stream);
    });
    const std::uint64_t fit_resets = (ic ? ic->resets() : 0) + (tc ? tc->resets() : 0);
    LooOptions loo_options;
    loo_options.collect_points = false;
    st.loo_infer_s = staged("predict.loo_inference", ic, [&] {
      st.loo_mape_infer = evaluate_loo("convmeter-fwd-only", *infer_stream,
                                       kDefaultPredictor, loo_options)
                              .pooled.mape;
    });
    st.loo_train_s = staged("predict.loo_training", tc, [&] {
      st.loo_mape_train =
          evaluate_loo("convmeter", *train_stream, kDefaultPredictor, loo_options).pooled.mape;
    });
    if (decorated) {
      st.fit_resets = static_cast<double>(fit_resets) / 2.0;
      st.loo_resets =
          static_cast<double>(ic->resets() + tc->resets() - fit_resets) / 2.0;
      st.store_read_s = ic->seconds() + tc->seconds();
      st.records_read = ic->records() + tc->records();
    }

    Span query_span("predict.queries");
    const ScalabilityAnalyzer analyzer(*train_model, PipelineSpec::kDevicesPerNode);
    for (std::size_t i = 0; i < spec_.query_models.size(); ++i) {
      const std::string& name = spec_.query_models[i];
      const TimePoint t0 = Clock::now();
      const Graph graph = models::build(name);
      const TimePoint t1 = Clock::now();
      QueryPoint q;
      q.model = name;
      q.image_size = models::default_image_size(name);
      q.metrics_b1 = compute_metrics_b1(graph, q.image_size);
      q.per_device_batch = spec_.query_batches[i];
      const TimePoint t2 = Clock::now();
      const double infer_s = infer_model->predict_inference(q);
      const TimePoint t3 = Clock::now();
      const std::vector<ScalabilityPoint> sweep = analyzer.node_sweep(
          q.metrics_b1, q.per_device_batch, PipelineSpec::kMaxNodes);
      const TimePoint t4 = Clock::now();
      st.build_s.push_back(elapsed_seconds(t0, t1));
      st.metrics_s.push_back(elapsed_seconds(t1, t2));
      st.sweep_s.push_back(elapsed_seconds(t3, t4));
      st.query_s.push_back(elapsed_seconds(t0, t4));
      bool ok = std::isfinite(infer_s) && infer_s > 0 &&
                sweep.size() == static_cast<std::size_t>(PipelineSpec::kMaxNodes);
      for (const ScalabilityPoint& p : sweep) {
        ok = ok && std::isfinite(p.throughput) && p.throughput > 0;
      }
      st.queries_ok = st.queries_ok && ok;
    }
    return st;
  }

  /// Checks one iteration's outputs against the spec and the first
  /// iteration (the LOO errors are deterministic for a seed).
  void check(const PipelineStats& st, Checks& checks) {
    checks.expect(st.infer_records == expected_infer_,
                  "inference shard holds points x repetitions records (" +
                      std::to_string(st.infer_records) + " of " +
                      std::to_string(expected_infer_) + ")");
    checks.expect(st.train_records == expected_train_,
                  "training shard holds points x repetitions records (" +
                      std::to_string(st.train_records) + " of " +
                      std::to_string(expected_train_) + ")");
    checks.expect(st.queries_ok, "every query prediction is finite and positive");
    const bool finite = std::isfinite(st.loo_mape_infer) && std::isfinite(st.loo_mape_train);
    if (!first_) first_ = st;
    checks.expect(finite && bit_equal(st.loo_mape_infer, first_->loo_mape_infer) &&
                      bit_equal(st.loo_mape_train, first_->loo_mape_train),
                  "LOO MAPE is finite and identical in every iteration");
  }

  /// Decorated campaigns wrote the same bytes as undecorated ones and gave
  /// the same LOO errors, and the shard-streamed LOO equals a
  /// VectorSampleStream LOO on the same samples.
  void verify(const std::string& plain_tag, const std::string& decorated_tag,
              const PipelineStats& decorated, Checks& checks) {
    for (const char* kind : {"infer", "train"}) {
      checks.expect(file_bytes(shard(plain_tag, kind)) == file_bytes(shard(decorated_tag, kind)),
                    std::string("decorated ") + kind + " campaign shard is byte-identical");
    }
    checks.expect(bit_equal(decorated.loo_mape_infer, first_->loo_mape_infer) &&
                      bit_equal(decorated.loo_mape_train, first_->loo_mape_train),
                  "decorated streams give the same LOO MAPE");
    LooOptions loo_options;
    loo_options.collect_points = false;
    for (const auto& [kind, predictor, mape] :
         {std::tuple{"infer", "convmeter-fwd-only", first_->loo_mape_infer},
          std::tuple{"train", "convmeter", first_->loo_mape_train}}) {
      StoreSampleStream store(shard(plain_tag, kind));
      const std::vector<RuntimeSample> samples = materialize(store);
      VectorSampleStream vec(samples);
      const double vector_mape =
          evaluate_loo(predictor, vec, kDefaultPredictor, loo_options).pooled.mape;
      checks.expect(bit_equal(vector_mape, mape),
                    std::string(kind) + " shard-streamed LOO MAPE equals the vector LOO");
    }
  }

  /// Sweep points a campaign measures: feasible resolutions whose batch
  /// fits the device, asked of the public backend and graph cache.
  static std::uint64_t feasible_points(const MeasurementBackend& backend,
                                       const std::vector<std::string>& names,
                                       const std::vector<std::int64_t>& images,
                                       const std::vector<std::int64_t>& batches,
                                       bool training) {
    std::uint64_t points = 0;
    for (const std::string& name : names) {
      const Graph graph = models::build(name);
      for (const std::int64_t image : images) {
        if (!GraphCache::instance().metrics_b1(name, image)) continue;
        for (const std::int64_t batch : batches) {
          points += backend.fits(graph, Shape::nchw(batch, 3, image, image), training);
        }
      }
    }
    return points;
  }

  static std::string file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

 private:
  PipelineSpec spec_;
  std::string dir_;
  std::unique_ptr<MeasurementBackend> infer_backend_, train_backend_;
  std::optional<PipelineStats> first_;
  std::uint64_t expected_infer_ = 0, expected_train_ = 0;
};

// ---- driver -----------------------------------------------------------------

// A workload class W provides setup() (fresh state, timed as set-up),
// op(Checks&) (one measured operation; returns the items it processed) and
// verify(Checks&) (the correctness checks that run after the timed loop).

struct LoopResult {
  std::vector<double> op_seconds;
  std::vector<double> rates;  ///< items per second, per op
};

/// Closed loop: one op after another until `seconds` have passed and at
/// least kMinOps ops ran.
template <typename W>
LoopResult timed_loop(W& w, double seconds, Checks& checks) {
  LoopResult r;
  const TimePoint start = Clock::now();
  while (r.op_seconds.size() < static_cast<std::size_t>(kMinOps) ||
         elapsed_seconds(start) < seconds) {
    const TimePoint t0 = Clock::now();
    const double items = w.op(checks);
    const double dt = elapsed_seconds(t0);
    r.op_seconds.push_back(dt);
    r.rates.push_back(items / dt);
  }
  std::cerr << "perfbench: " << r.op_seconds.size() << " ops, op seconds min "
            << quantile(r.op_seconds, 0) << " p25 " << quantile(r.op_seconds, 0.25)
            << " p50 " << quantile(r.op_seconds, 0.5) << " p75 "
            << quantile(r.op_seconds, 0.75) << " max " << quantile(r.op_seconds, 1)
            << "\n";
  return r;
}

/// Median set-up time over repeated set-ups; the last one stays in place.
template <typename W>
double median_setup_seconds(W& w) {
  std::vector<double> times;
  const TimePoint start = Clock::now();
  while (times.size() < static_cast<std::size_t>(kSetupReps) ||
         elapsed_seconds(start) < kSetupSeconds) {
    const TimePoint t0 = Clock::now();
    w.setup();
    times.push_back(elapsed_seconds(t0));
  }
  return median(times);
}

// ---- layer probes (traced run) ----------------------------------------------

using MetricMap = std::vector<std::pair<std::string, double>>;

/// Sum of LayerTiming seconds over nodes of the given kinds.
double layer_seconds(const Graph& g, const ExecutionResult& r,
                     std::initializer_list<OpKind> kinds) {
  double s = 0;
  for (const LayerTiming& l : r.layers) {
    const OpKind k = g.node(l.node).kind;
    for (const OpKind want : kinds) s += (k == want) ? l.seconds : 0.0;
  }
  return s;
}

template <typename F>
std::vector<double> repeat(int n, F f) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(f());
  return v;
}

void probe_exec_infer(std::uint64_t seed, MetricMap& out) {
  Span span("probe.exec_infer");
  constexpr int kReps = 5;
  const InferInputs in(seed);
  const Graph resnet = models::build("resnet18");
  const Graph vit = models::build("vit_s_16");
  Executor e4(kPoolThreads), e1(1);
  e4.run(resnet, in.resnet_x, in.weight_seed);
  e4.run(vit, in.vit_x, in.weight_seed);
  e1.run(resnet, in.resnet_x, in.weight_seed);

  memtrack::reset();
  std::vector<double> run_r, run_v, run_r1, conv_layer, coverage, lin_layer,
      attn_layer, norm_layer, peak_r, peak_v;
  for (int i = 0; i < kReps; ++i) {
    std::uint64_t base = memtrack::current_bytes();
    memtrack::reset();
    const ExecutionResult r = e4.run(resnet, in.resnet_x, in.weight_seed);
    peak_r.push_back(static_cast<double>(memtrack::peak_bytes() - base));
    run_r.push_back(r.total_seconds);
    conv_layer.push_back(layer_seconds(resnet, r, {OpKind::kConv2d}));
    double covered = 0;
    for (const LayerTiming& l : r.layers) covered += l.seconds;
    coverage.push_back(covered / r.total_seconds);

    base = memtrack::current_bytes();
    memtrack::reset();
    const ExecutionResult v = e4.run(vit, in.vit_x, in.weight_seed);
    peak_v.push_back(static_cast<double>(memtrack::peak_bytes() - base));
    run_v.push_back(v.total_seconds);
    lin_layer.push_back(layer_seconds(vit, v, {OpKind::kLinear}));
    attn_layer.push_back(layer_seconds(vit, v, {OpKind::kSelfAttention}));
    norm_layer.push_back(layer_seconds(vit, v, {OpKind::kLayerNorm}));

    run_r1.push_back(e1.run(resnet, in.resnet_x, in.weight_seed).total_seconds);
  }
  const double workspace = static_cast<double>(memtrack::workspace_high_water_bytes());

  ThreadPool p4(kPoolThreads), p1(1);
  const std::vector<ConvCase> convs = conv_cases(resnet, resnet_shape(), mix(seed, 31));
  double flops = 0, bytes = 0;
  for (const ConvCase& c : convs) {
    flops += c.flops;
    bytes += c.bytes;
  }
  replay_conv_forward(p4, convs);
  const double conv_kernel = median(repeat(kReps, [&] { return replay_conv_forward(p4, convs); }));
  const std::vector<LinearCase> linears = linear_cases(vit, vit_shape(), mix(seed, 32));
  replay_linear(p4, linears);
  const double lin_kernel = median(repeat(kReps, [&] { return replay_linear(p4, linears); }));
  const double gemm1 = gemm_gflops(p1, 512, 7);
  const double gemm4 = gemm_gflops(p4, 512, 7);
  const double conv_gflops = flops / conv_kernel * 1e-9;

  out.insert(out.end(), {
      {"exec.run_resnet18_ms", ms(median(run_r))},
      {"exec.run_vit_ms", ms(median(run_v))},
      {"exec.resnet18_fwd_images_per_s_4t", kResnetBatch / median(run_r)},
      {"exec.vit_fwd_images_per_s_4t", kVitBatch / median(run_v)},
      {"exec.conv_layer_ms", ms(median(conv_layer))},
      {"exec.conv_kernel_ms", ms(conv_kernel)},
      {"exec.conv_outside_kernel_ms", ms(median(conv_layer) - conv_kernel)},
      {"exec.conv_gflops", conv_gflops},
      {"exec.conv_flop_per_byte", flops / bytes},
      {"exec.gemm_peak_gflops_1t", gemm1},
      {"exec.gemm_peak_gflops_4t", gemm4},
      {"exec.conv_peak_frac", conv_gflops / gemm4},
      {"exec.layer_coverage", median(coverage)},
      {"exec.resnet18_scaling_1_to_4", median(run_r1) / median(run_r)},
      {"exec.gemm_layer_ms_vit", ms(median(lin_layer))},
      {"exec.attention_layer_ms_vit", ms(median(attn_layer))},
      {"exec.norm_layer_ms_vit", ms(median(norm_layer))},
      {"exec.linear_kernel_ms_vit", ms(lin_kernel)},
      {"exec.attention_kernel_gflops", attention_gflops(p4, kReps)},
      {"tensor.peak_bytes_resnet18", median(peak_r)},
      {"tensor.peak_bytes_vit", median(peak_v)},
      {"exec.workspace_high_water_bytes", workspace},
  });
}

void probe_exec_train(std::uint64_t seed, MetricMap& out) {
  Span span("probe.exec_train");
  constexpr int kReps = 3;
  const TrainInputs in(seed);
  Trainer t4(models::build("resnet18"), trainer_config(in.weight_seed, kPoolThreads));
  Trainer t1(models::build("resnet18"), trainer_config(in.weight_seed, 1));
  // Both trainers start from the same weights; count how many of their
  // losses agree bit for bit (see TrainReal::verify for why not all do).
  std::vector<double> fwd, bwd, upd, step4, step1, peak, workspace;
  std::uint64_t equal_losses = 0;
  for (int i = 0; i <= kReps; ++i) {
    memtrack::reset();
    TimePoint t0 = Clock::now();
    const RealStepResult r = t4.step(in.x, in.labels);
    const double s4 = elapsed_seconds(t0);
    t0 = Clock::now();
    const double loss1 = t1.step(in.x, in.labels).loss;
    const double s1 = elapsed_seconds(t0);
    equal_losses += bit_equal(r.loss, loss1);
    if (i == 0) continue;  // warm-up step
    step4.push_back(s4);
    step1.push_back(s1);
    fwd.push_back(r.fwd_seconds);
    bwd.push_back(r.bwd_seconds);
    upd.push_back(r.update_seconds);
    peak.push_back(static_cast<double>(r.mem_peak_bytes));
    workspace.push_back(static_cast<double>(r.mem_workspace_bytes));
  }

  ThreadPool p4(kPoolThreads), p1(1);
  const std::vector<ConvCase> convs =
      conv_cases(models::build("resnet18"),
                 Shape::nchw(kTrainBatch, 3, kTrainImage, kTrainImage), mix(seed, 33), true);
  replay_conv_backward(p4, convs);
  const double bwd4 = median(repeat(kReps, [&] { return replay_conv_backward(p4, convs); }));
  replay_conv_backward(p1, convs);
  const double bwd1 = median(repeat(kReps, [&] { return replay_conv_backward(p1, convs); }));

  out.insert(out.end(), {
      {"exec.trainer.fwd_ms", ms(median(fwd))},
      {"exec.trainer.bwd_ms", ms(median(bwd))},
      {"exec.trainer.update_ms", ms(median(upd))},
      {"exec.conv_backward_kernel_ms", ms(bwd4)},
      {"exec.conv_backward_scaling_1_to_4", bwd1 / bwd4},
      {"exec.trainer.scaling_1_to_4", median(step1) / median(step4)},
      {"exec.trainer.losses_bitwise_1t", static_cast<double>(equal_losses)},
      {"tensor.train_peak_bytes", median(peak)},
      {"exec.train_workspace_bytes", median(workspace)},
  });
}

/// The predictor job: untraced iterations give its end-to-end rate, then
/// decorated ones give the layer figures; every iteration is checked.
void probe_pipeline(const RunConfig& config, Checks& checks, MetricMap& out) {
  Span span("probe.pipeline");
  constexpr int kPlainReps = 9, kReps = 3;
  Pipeline pipeline(config.seed, config.work_dir);
  std::vector<double> job_seconds, job_rates;
  obs::set_enabled(false);
  for (int i = 0; i < kPlainReps; ++i) {
    const TimePoint t0 = Clock::now();
    const PipelineStats st = pipeline.iterate("plain", false);
    job_seconds.push_back(elapsed_seconds(t0));
    job_rates.push_back(static_cast<double>(st.infer_records + st.train_records) /
                        job_seconds.back());
    pipeline.check(st, checks);
  }
  obs::set_enabled(true);
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const auto misses = [&] {
    const obs::Counter* c = registry.find_counter("campaign.graph_cache.misses");
    return c ? static_cast<double>(c->value()) : 0.0;
  };
  std::vector<PipelineStats> runs;
  std::vector<double> miss_counts;
  for (int i = 0; i < kReps; ++i) {
    const double m0 = misses();
    runs.push_back(pipeline.iterate("probe", true));
    miss_counts.push_back(misses() - m0);
    pipeline.check(runs.back(), checks);
  }
  pipeline.verify("plain", "probe", runs.back(), checks);
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const PipelineStats& s : runs) v.push_back(field(s));
    return median(v);
  };
  const auto pooled = [&](std::vector<double> PipelineStats::*field, double q) {
    std::vector<double> v;
    for (const PipelineStats& s : runs) v.insert(v.end(), (s.*field).begin(), (s.*field).end());
    return quantile(v, q);
  };
  const PipelineStats& last = runs.back();
  const double jobs = kCampaignJobs;
  out.insert(out.end(), {
      {"predict.pipeline_samples_per_s", median(job_rates)},
      {"predict.pipeline_job_ms", ms(median(job_seconds))},
      {"sim.measure_infer_us",
       med([](const auto& s) { return us(s.infer_busy_s / s.infer_calls); })},
      {"sim.measure_train_us",
       med([](const auto& s) { return us(s.train_busy_s / s.train_calls); })},
      {"sim.measure_calls", static_cast<double>(last.infer_calls + last.train_calls)},
      {"collect.campaign_infer_s", med([](const auto& s) { return s.campaign_infer_s; })},
      {"collect.campaign_train_s", med([](const auto& s) { return s.campaign_train_s; })},
      {"collect.worker_busy_frac", med([&](const auto& s) {
         return (s.infer_busy_s + s.train_busy_s) /
                (jobs * (s.campaign_infer_s + s.campaign_train_s));
       })},
      {"collect.graph_cache_misses", miss_counts.back()},
      {"collect.store_write_s", med([](const auto& s) { return s.store_write_s; })},
      {"collect.store_write_mb_per_s",
       med([](const auto& s) { return s.store_bytes / s.store_write_s * 1e-6; })},
      {"collect.store_read_s", med([](const auto& s) { return s.store_read_s; })},
      {"collect.records_read", static_cast<double>(last.records_read)},
      {"regress.fit_infer_s", med([](const auto& s) { return s.fit_infer_s; })},
      {"regress.fit_train_s", med([](const auto& s) { return s.fit_train_s; })},
      {"regress.fit_passes", last.fit_resets},
      {"predict.loo_infer_s", med([](const auto& s) { return s.loo_infer_s; })},
      {"predict.loo_train_s", med([](const auto& s) { return s.loo_train_s; })},
      {"predict.loo_passes", last.loo_resets},
      {"predict.loo_mape_infer", last.loo_mape_infer},
      {"predict.loo_mape_train", last.loo_mape_train},
      {"models.build_us", us(pooled(&PipelineStats::build_s, 0.5))},
      {"metrics.compute_us", us(pooled(&PipelineStats::metrics_s, 0.5))},
      {"core.node_sweep_us", us(pooled(&PipelineStats::sweep_s, 0.5))},
      {"predict.query_p50_us", us(pooled(&PipelineStats::query_s, 0.5))},
      {"predict.query_p90_us", us(pooled(&PipelineStats::query_s, 0.9))},
  });
}

std::vector<Metric> ordered(const std::vector<MetricSpec>& table, const MetricMap& values) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : table) {
    const auto it = std::find_if(values.begin(), values.end(),
                                 [&](const auto& kv) { return kv.first == spec.name; });
    if (it == values.end()) throw std::logic_error("metric " + spec.name + " not measured");
    out.push_back({spec.name, spec.unit, it->second});
  }
  return out;
}

void print_self_times() {
  std::cerr << "perfbench: self time by span (s)\n";
  for (const auto& [name, seconds] : SpanLog::instance().self_seconds_by_name()) {
    std::cerr << "  " << name << "  " << seconds << "\n";
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"infer_real", "train_real"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"items_per_s", "1/s"},
      {"op_p50_ms", "ms"},
      {"op_p75_ms", "ms"},
  };
  return table;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> table = {
      {"exec.run_resnet18_ms", "ms"},
      {"exec.run_vit_ms", "ms"},
      {"exec.resnet18_fwd_images_per_s_4t", "1/s"},
      {"exec.vit_fwd_images_per_s_4t", "1/s"},
      {"exec.conv_layer_ms", "ms"},
      {"exec.conv_kernel_ms", "ms"},
      {"exec.conv_outside_kernel_ms", "ms"},
      {"exec.conv_gflops", "GFLOP/s"},
      {"exec.conv_flop_per_byte", "flop/B-computed"},
      {"exec.gemm_peak_gflops_1t", "GFLOP/s"},
      {"exec.gemm_peak_gflops_4t", "GFLOP/s"},
      {"exec.conv_peak_frac", "frac"},
      {"exec.layer_coverage", "frac"},
      {"exec.resnet18_scaling_1_to_4", "x"},
      {"exec.gemm_layer_ms_vit", "ms"},
      {"exec.attention_layer_ms_vit", "ms"},
      {"exec.norm_layer_ms_vit", "ms"},
      {"exec.linear_kernel_ms_vit", "ms"},
      {"exec.attention_kernel_gflops", "GFLOP/s"},
      {"tensor.peak_bytes_resnet18", "B"},
      {"tensor.peak_bytes_vit", "B"},
      {"exec.workspace_high_water_bytes", "B"},
      {"exec.trainer.fwd_ms", "ms"},
      {"exec.trainer.bwd_ms", "ms"},
      {"exec.trainer.update_ms", "ms"},
      {"exec.conv_backward_kernel_ms", "ms"},
      {"exec.conv_backward_scaling_1_to_4", "x"},
      {"exec.trainer.scaling_1_to_4", "x"},
      {"exec.trainer.losses_bitwise_1t", "count"},
      {"tensor.train_peak_bytes", "B"},
      {"exec.train_workspace_bytes", "B"},
      {"predict.pipeline_samples_per_s", "1/s"},
      {"predict.pipeline_job_ms", "ms"},
      {"sim.measure_infer_us", "us"},
      {"sim.measure_train_us", "us"},
      {"sim.measure_calls", "count"},
      {"collect.campaign_infer_s", "s"},
      {"collect.campaign_train_s", "s"},
      {"collect.worker_busy_frac", "frac"},
      {"collect.graph_cache_misses", "count"},
      {"collect.store_write_s", "s"},
      {"collect.store_write_mb_per_s", "MB/s"},
      {"collect.store_read_s", "s"},
      {"collect.records_read", "count"},
      {"regress.fit_infer_s", "s"},
      {"regress.fit_train_s", "s"},
      {"regress.fit_passes", "count"},
      {"predict.loo_infer_s", "s"},
      {"predict.loo_train_s", "s"},
      {"predict.loo_passes", "count"},
      {"predict.loo_mape_infer", "frac"},
      {"predict.loo_mape_train", "frac"},
      {"models.build_us", "us"},
      {"metrics.compute_us", "us"},
      {"core.node_sweep_us", "us"},
      {"predict.query_p50_us", "us"},
      {"predict.query_p90_us", "us"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return table;
}

namespace {

template <typename W>
RunOutcome measure(W& w, const RunConfig& config) {
  RunOutcome out;
  MetricMap values;
  if (!config.trace) {
    const double setup = median_setup_seconds(w);
    const LoopResult loop = timed_loop(w, config.seconds, out.checks);
    out.ops = loop.op_seconds.size();
    const double rss = peak_rss_mb();  // before the checks' extra state
    w.verify(out.checks);
    values = {
        {"setup_s", setup},
        {"peak_rss_mb", rss},
        {"items_per_s", median(loop.rates)},
        {"op_p50_ms", ms(quantile(loop.op_seconds, 0.5))},
        {"op_p75_ms", ms(quantile(loop.op_seconds, 0.75))},
    };
    out.metrics = ordered(end_to_end_metrics(), values);
    return out;
  }
  // Traced run: price the tracing on this workload, then probe every layer.
  w.setup();
  const LoopResult untraced = timed_loop(w, config.seconds / 2, out.checks);
  obs::set_enabled(true);
  memtrack::set_enabled(true);
  SpanLog::instance().set_enabled(true);
  const LoopResult traced = timed_loop(w, config.seconds / 2, out.checks);
  out.ops = untraced.op_seconds.size() + traced.op_seconds.size();
  values.emplace_back("obs.trace_overhead_frac",
                      median(traced.op_seconds) / median(untraced.op_seconds) - 1.0);
  probe_exec_infer(config.seed, values);
  probe_exec_train(config.seed, values);
  probe_pipeline(config, out.checks, values);
  SpanLog::instance().set_enabled(false);
  memtrack::set_enabled(false);
  obs::set_enabled(false);
  print_self_times();
  out.metrics = ordered(per_layer_metrics(), values);
  return out;
}

}  // namespace

RunOutcome run_workload(const RunConfig& config) {
  if (config.workload == "infer_real") {
    InferReal w(config.seed);
    return measure(w, config);
  }
  if (config.workload == "train_real") {
    TrainReal w(config.seed);
    return measure(w, config);
  }
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

std::uint64_t input_digest(const std::string& workload, std::uint64_t seed) {
  Digest d;
  if (workload == "infer_real") {
    const InferInputs in(seed);
    d.add(in.resnet_x);
    d.add(in.vit_x);
    d.add_value(in.weight_seed);
  } else if (workload == "train_real") {
    const TrainInputs in(seed);
    d.add(in.x);
    d.add(in.labels.data(), in.labels.size() * sizeof(int));
    d.add_value(in.weight_seed);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return d.h;
}

}  // namespace perfbench
