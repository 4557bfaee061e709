// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each bench/<id>_*.cpp binary regenerates one table or figure of the
// paper: it runs the benchmark campaign on the simulated devices, fits
// ConvMeter, and prints the same rows/series the paper reports (plus an
// ASCII rendition of the figure's scatter/line plot).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "collect/sample.hpp"
#include "predict/evaluate.hpp"

namespace convmeter::bench {

/// The ConvNet set used throughout the paper's evaluation (Table 1 rows).
std::vector<std::string> paper_model_set();

/// The subset used in the scalability figures (Fig. 8: eight ConvNets).
std::vector<std::string> scalability_model_set();

/// Prints a Table 1/3-style per-ConvNet error table plus the pooled row.
void print_error_table(std::ostream& os, const std::string& title,
                       const LooResult& result, bool show_r2 = true);

/// Prints an ASCII log-log scatter of predicted vs measured values with a
/// diagonal reference — the textual rendition of the paper's Fig. 3/4/5/7
/// correlation plots.
void print_scatter(std::ostream& os, const std::string& title,
                   const std::vector<double>& predicted,
                   const std::vector<double>& measured,
                   const std::string& unit = "s");

/// One named line series for print_series (e.g. one ConvNet's throughput
/// curve in Fig. 8/9).
struct Series {
  std::string label;
  std::vector<double> x;
  std::vector<double> y;
};

/// Prints aligned numeric columns for a family of line series sharing an
/// x-axis, the textual rendition of the Fig. 8/9 curve plots.
void print_series_table(std::ostream& os, const std::string& title,
                        const std::string& x_label,
                        const std::vector<Series>& series);

/// Collects (predicted, measured) pairs pooled over a LooResult.
void pooled_pairs(const LooResult& result, std::vector<double>* predicted,
                  std::vector<double>* measured);

}  // namespace convmeter::bench
