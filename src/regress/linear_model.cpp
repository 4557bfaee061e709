#include "regress/linear_model.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace convmeter {

LinearModel LinearModel::from_coefficients(Vector coefficients) {
  CM_CHECK(!coefficients.empty(), "linear model needs at least one coefficient");
  LinearModel m;
  m.coefficients_ = std::move(coefficients);
  return m;
}

double LinearModel::predict(const Vector& features) const {
  CM_CHECK(features.size() == coefficients_.size(),
           "predict: feature width mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    sum += features[i] * coefficients_[i];
  }
  return sum;
}

std::string LinearModel::to_text() const {
  std::ostringstream os;
  os << "linear_model " << coefficients_.size();
  os.precision(17);
  for (const double c : coefficients_) os << ' ' << c;
  return os.str();
}

json::Value LinearModel::to_json() const {
  json::Value::Array coeffs;
  coeffs.reserve(coefficients_.size());
  for (const double c : coefficients_) coeffs.emplace_back(c);
  return json::Value(std::move(coeffs));
}

LinearModel LinearModel::from_json(const json::Value& value) {
  if (!value.is_array() || value.as_array().empty()) {
    throw ParseError("linear model JSON must be a non-empty array");
  }
  LinearModel m;
  m.coefficients_.reserve(value.as_array().size());
  for (const json::Value& c : value.as_array()) {
    m.coefficients_.push_back(c.as_number());
  }
  return m;
}

LinearModel LinearModel::from_text(const std::string& text) {
  std::istringstream is(text);
  std::string tag;
  std::size_t n = 0;
  is >> tag >> n;
  if (!is || tag != "linear_model") {
    throw ParseError("malformed linear model text: " + text);
  }
  LinearModel m;
  m.coefficients_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    is >> m.coefficients_[i];
    if (!is) throw ParseError("linear model text truncated");
  }
  return m;
}

}  // namespace convmeter
