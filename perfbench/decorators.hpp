// Pass-through decorators over the library's public virtual seams. Each one
// forwards every call unchanged to the wrapped object and only adds
// counters and wall-clock timers around it, so a decorated campaign or fit
// produces exactly the bytes and numbers an undecorated one does (checked
// at run time by the predictor probe and in perfbench_test).
#pragma once

#include <atomic>
#include <cstdint>

#include "backend/backend.hpp"
#include "collect/campaign.hpp"
#include "collect/sample_stream.hpp"
#include "common/clock.hpp"

namespace perfbench {

/// Times every measure_* call of a MeasurementBackend. Thread-safe: the
/// campaign engine calls measure_* from its worker threads.
class TimedBackend final : public convmeter::MeasurementBackend {
 public:
  explicit TimedBackend(convmeter::MeasurementBackend& inner) : inner_(inner) {}

  const convmeter::DeviceSpec& device() const override {
    return inner_.device();
  }
  bool supports_inference() const override {
    return inner_.supports_inference();
  }
  bool supports_training() const override { return inner_.supports_training(); }
  int max_concurrency() const override { return inner_.max_concurrency(); }
  bool fits(const convmeter::Graph& graph, const convmeter::Shape& input_shape,
            bool training) const override {
    return inner_.fits(graph, input_shape, training);
  }

  convmeter::InferenceMeasurement measure_inference(
      const convmeter::Graph& graph, const convmeter::Shape& input_shape,
      convmeter::Rng& rng) override {
    const convmeter::TimePoint t0 = convmeter::Clock::now();
    convmeter::InferenceMeasurement m =
        inner_.measure_inference(graph, input_shape, rng);
    infer_ns_.fetch_add(convmeter::elapsed_ns(t0), std::memory_order_relaxed);
    infer_calls_.fetch_add(1, std::memory_order_relaxed);
    return m;
  }

  convmeter::TrainMeasurement measure_train_step(
      const convmeter::Graph& graph, const convmeter::Shape& per_device_shape,
      const convmeter::TrainConfig& config, convmeter::Rng& rng) override {
    const convmeter::TimePoint t0 = convmeter::Clock::now();
    convmeter::TrainMeasurement m =
        inner_.measure_train_step(graph, per_device_shape, config, rng);
    train_ns_.fetch_add(convmeter::elapsed_ns(t0), std::memory_order_relaxed);
    train_calls_.fetch_add(1, std::memory_order_relaxed);
    return m;
  }

  std::uint64_t infer_calls() const { return infer_calls_.load(); }
  std::uint64_t train_calls() const { return train_calls_.load(); }
  double infer_seconds() const { return static_cast<double>(infer_ns_.load()) * 1e-9; }
  double train_seconds() const { return static_cast<double>(train_ns_.load()) * 1e-9; }

 private:
  convmeter::MeasurementBackend& inner_;
  std::atomic<std::uint64_t> infer_calls_{0};
  std::atomic<std::uint64_t> train_calls_{0};
  std::atomic<std::int64_t> infer_ns_{0};
  std::atomic<std::int64_t> train_ns_{0};
};

/// Times every sample handed to a SampleSink. Campaigns emit from the
/// gathering thread only, so plain counters suffice.
class TimedSink final : public convmeter::SampleSink {
 public:
  explicit TimedSink(convmeter::SampleSink& inner) : inner_(inner) {}

  void emit(const convmeter::RuntimeSample& sample) override {
    const convmeter::TimePoint t0 = convmeter::Clock::now();
    inner_.emit(sample);
    record(t0);
  }

  void emit_indexed(const convmeter::RuntimeSample& sample,
                    std::uint64_t point_index,
                    std::uint32_t repetition) override {
    const convmeter::TimePoint t0 = convmeter::Clock::now();
    inner_.emit_indexed(sample, point_index, repetition);
    record(t0);
  }

  std::uint64_t samples() const { return samples_; }
  double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  void record(convmeter::TimePoint t0) {
    ns_ += convmeter::elapsed_ns(t0);
    ++samples_;
  }

  convmeter::SampleSink& inner_;
  std::uint64_t samples_ = 0;
  std::int64_t ns_ = 0;
};

/// Counts records, rewinds and read time of a SampleStream.
class CountingStream final : public convmeter::SampleStream {
 public:
  explicit CountingStream(convmeter::SampleStream& inner) : inner_(inner) {}

  bool next(convmeter::RuntimeSample& out) override {
    const convmeter::TimePoint t0 = convmeter::Clock::now();
    const bool more = inner_.next(out);
    ns_ += convmeter::elapsed_ns(t0);
    if (more) ++records_;
    return more;
  }

  void reset() override {
    const convmeter::TimePoint t0 = convmeter::Clock::now();
    inner_.reset();
    ns_ += convmeter::elapsed_ns(t0);
    ++resets_;
  }

  std::uint64_t records() const { return records_; }
  std::uint64_t resets() const { return resets_; }
  double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  convmeter::SampleStream& inner_;
  std::uint64_t records_ = 0;
  std::uint64_t resets_ = 0;
  std::int64_t ns_ = 0;
};

}  // namespace perfbench
