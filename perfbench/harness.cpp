#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

bool all_of(const std::string& s, const std::string& extra) {
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return is_alnum(c) || extra.find(c) != std::string::npos;
  });
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  return !name.empty() && name.size() <= 64 && is_alnum(name[0]) &&
         all_of(name, "_.-");
}

bool valid_unit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && all_of(unit, "_/%.-");
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::size_t SpanLog::open(std::string name) {
  Record r;
  r.name = std::move(name);
  r.parent = stack_.empty() ? kNoParent : stack_.back();
  r.start = convmeter::Clock::now();
  records_.push_back(std::move(r));
  stack_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  Record& r = records_.at(id);
  r.dur_ns = convmeter::elapsed_ns(r.start);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += std::max<std::int64_t>(records_[i].dur_ns, 0);
    if (records_[i].parent != kNoParent) {
      self[records_[i].parent] -= std::max<std::int64_t>(records_[i].dur_ns, 0);
    }
  }
  return self;
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds_by_name()
    const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    by_name[records_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  std::vector<std::pair<std::string, double>> out(by_name.begin(),
                                                  by_name.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::string SpanLog::chrome_trace_json() const {
  const convmeter::obs::Tracer& tracer = convmeter::obs::Tracer::instance();
  const std::vector<std::int64_t> self = self_ns();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const std::string& name, const char* cat,
                         std::int64_t ts_ns, std::int64_t dur_ns,
                         std::uint32_t tid, const std::string& args) {
    os << (first ? "\n" : ",\n") << "{\"name\":" << json_string(name)
       << ",\"cat\":" << json_string(cat) << ",\"ph\":\"X\",\"ts\":"
       << format_double(static_cast<double>(ts_ns) * 1e-3)
       << ",\"dur\":" << format_double(static_cast<double>(dur_ns) * 1e-3)
       << ",\"pid\":1,\"tid\":" << tid;
    if (!args.empty()) os << ",\"args\":{" << args << "}";
    os << "}";
    first = false;
  };
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.dur_ns < 0) continue;
    std::string args = "\"id\":" + std::to_string(i);
    if (r.parent != kNoParent) args += ",\"parent\":" + std::to_string(r.parent);
    args += ",\"self_us\":" + format_double(static_cast<double>(self[i]) * 1e-3);
    // The benchmark's own spans live on a separate track (tid 0) above the
    // library's per-thread tracks.
    event(r.name, "perfbench", tracer.ns_since_epoch(r.start), r.dur_ns, 0,
          args);
  }
  for (const convmeter::obs::TraceEvent& e : tracer.snapshot()) {
    event(e.name, e.category, e.ts_ns, e.dur_ns, e.tid + 1, "");
  }
  os << "\n]}\n";
  return os.str();
}

Span::Span(std::string name) : id_(0), active_(SpanLog::instance().enabled()) {
  if (active_) id_ = SpanLog::instance().open(std::move(name));
}

Span::~Span() {
  if (active_) SpanLog::instance().close(id_);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string provenance_json(const Provenance& provenance) {
  std::string out = "{\"provenance\": {";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    if (i) out += ", ";
    out += json_string(provenance[i].first) + ": " +
           json_string(provenance[i].second);
  }
  return out + "}}";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string body;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name '" + m.name +
                                  "'");
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("bad unit '" + m.unit + "' of " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value of " + m.name);
    }
    if (!body.empty()) body += ", ";
    body += json_string(m.name) + ": {\"value\": " + format_double(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body +
         "}}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
