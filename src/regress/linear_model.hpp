// The fitted linear form, the modeling core of ConvMeter (Sec. 3.4: "We use
// linear regression to compute the coefficients for the performance models
// based on the measurements").
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "linalg/matrix.hpp"

namespace convmeter {

/// A fitted linear model y ≈ x · coefficients.
///
/// Fitting lives in the streaming accumulators (core/accumulate solves
/// through IncrementalLS, which rescales columns and falls back to a light
/// ridge on rank deficiency); this class holds, applies and serializes the
/// solved coefficients.
class LinearModel {
 public:
  /// Wraps already-solved coefficients.
  static LinearModel from_coefficients(Vector coefficients);

  /// Prediction for one feature row.
  double predict(const Vector& features) const;

  const Vector& coefficients() const { return coefficients_; }

  /// Serialization for persisting tuned platform coefficients.
  std::string to_text() const;
  static LinearModel from_text(const std::string& text);

  /// JSON serialization (a plain coefficient array) for the versioned
  /// model-file format; round-trips coefficients bit-identically.
  json::Value to_json() const;
  static LinearModel from_json(const json::Value& value);

 private:
  Vector coefficients_;
};

}  // namespace convmeter
