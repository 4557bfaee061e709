// Benchmark plumbing shared by every workload: order statistics, the
// correctness tally, metric-name validation, benchmark-side spans with
// explicit parent links, and the result/provenance JSON lines.
//
// Everything here sits outside the library: spans are opened around calls
// into public functions, and the Chrome trace merges them with whatever the
// library itself recorded into obs::Tracer while tracing was on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace perfbench {

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1]; 0 if empty.
double quantile(std::vector<double> values, double q);

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, '_', '.', '-'.
bool valid_metric_name(const std::string& name);

/// A unit: 1..16 characters of letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(const std::string& unit);

/// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Tally of correctness checks. Every check is one attempted operation; a
/// failed check is printed to stderr with its description.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Benchmark-side span log with explicit parent links. Spans are opened and
/// closed on the main thread only (the workloads' driver loops); library
/// calls made inside a span may record their own spans on any thread.
class SpanLog {
 public:
  static SpanLog& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its id.
  std::size_t open(std::string name);
  void close(std::size_t id);

  /// Chrome trace-event JSON: these spans (category "perfbench", with
  /// id/parent/self_us args) merged with the library's obs::Tracer events.
  std::string chrome_trace_json() const;

  /// (name, self seconds) summed per span name, largest first. Self time is
  /// a span's duration minus its direct children's.
  std::vector<std::pair<std::string, double>> self_seconds_by_name() const;

 private:
  struct Record {
    std::string name;
    std::size_t parent = kNoParent;
    convmeter::TimePoint start;
    std::int64_t dur_ns = -1;  ///< -1 while open
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::vector<std::int64_t> self_ns() const;

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op while the log is disabled.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t id_;
  bool active_;
};

/// Key/value provenance stamped beside every result.
using Provenance = std::vector<std::pair<std::string, std::string>>;

/// `{"provenance": {...}}` on one line.
std::string provenance_json(const Provenance& provenance);

/// The result line: exactly the keys correct, attempted, failed, metrics.
/// Throws std::invalid_argument for an invalid or repeated metric name or
/// unit, or a non-finite value.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// JSON string literal with the necessary escapes.
std::string json_string(const std::string& s);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
