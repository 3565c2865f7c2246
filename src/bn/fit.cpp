#include "bn/fit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/matrix.h"

namespace drivefi::bn {

using util::Cholesky;
using util::Matrix;
using util::Vector;

std::size_t Dataset::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (columns[i] == name) return i;
  throw std::out_of_range("dataset has no column: " + name);
}

void Dataset::add_row(std::vector<double> row) {
  assert(row.size() == columns.size());
  rows.push_back(std::move(row));
}

FittedCpd fit_node(const NodeSpec& spec, const Dataset& data,
                   const FitOptions& options) {
  if (data.rows.empty()) throw std::invalid_argument("empty dataset");
  const auto n_rows = static_cast<double>(data.rows.size());
  const std::size_t y_col = data.column_index(spec.name);
  const std::size_t p = spec.parents.size();

  if (p == 0) {
    // Root node: sample mean/variance.
    double mean = 0.0;
    for (const auto& row : data.rows) mean += row[y_col];
    mean /= n_rows;
    double var = 0.0;
    for (const auto& row : data.rows) {
      const double d = row[y_col] - mean;
      var += d * d;
    }
    return {{}, mean, std::max(var / n_rows, options.min_variance)};
  }

  std::vector<std::size_t> x_cols(p);
  for (std::size_t j = 0; j < p; ++j)
    x_cols[j] = data.column_index(spec.parents[j]);

  // Normal equations with intercept: design = [X, 1].
  const std::size_t d = p + 1;
  Matrix xtx(d, d);
  Vector xty(d);
  std::vector<double> x(d, 1.0);  // x[p] stays the intercept's 1
  for (const auto& row : data.rows) {
    for (std::size_t j = 0; j < p; ++j) x[j] = row[x_cols[j]];
    const double y = row[y_col];
    for (std::size_t a = 0; a < d; ++a) {
      xty[a] += x[a] * y;
      for (std::size_t b = a; b < d; ++b) xtx(a, b) += x[a] * x[b];
    }
  }
  // x[a] * x[b] rounds to the same double as x[b] * x[a], so each entry
  // below the diagonal would sum the same terms as its mirror.
  for (std::size_t a = 1; a < d; ++a)
    for (std::size_t b = 0; b < a; ++b) xtx(a, b) = xtx(b, a);
  for (std::size_t a = 0; a < d; ++a)
    xtx(a, a) += options.ridge * std::max(1.0, xtx(a, a));

  const Cholesky chol(xtx);
  const Vector beta = chol.solve(xty);

  // Residual variance (MLE, divide by n).
  double sse = 0.0;
  for (const auto& row : data.rows) {
    double pred = beta[p];
    for (std::size_t j = 0; j < p; ++j) pred += beta[j] * row[x_cols[j]];
    const double r = row[y_col] - pred;
    sse += r * r;
  }
  return {std::vector<double>(beta.data(), beta.data() + p), beta[p],
          std::max(sse / n_rows, options.min_variance)};
}

LinearGaussianNetwork fit_network(const std::vector<NodeSpec>& specs,
                                  const Dataset& data,
                                  const FitOptions& options) {
  if (data.rows.empty()) throw std::invalid_argument("empty dataset");
  LinearGaussianNetwork net;
  for (const auto& spec : specs) {
    const FittedCpd cpd = fit_node(spec, data, options);
    net.add_node(spec.name, spec.parents, cpd.weights, cpd.bias,
                 cpd.variance);
  }
  return net;
}

std::vector<FitDiagnostics> evaluate_fit(const LinearGaussianNetwork& net,
                                         const Dataset& data) {
  std::vector<FitDiagnostics> out;
  for (NodeId i = 0; i < net.node_count(); ++i) {
    const auto& cpd = net.cpd(i);
    const std::size_t y_col = data.column_index(net.name(i));

    double y_mean = 0.0;
    for (const auto& row : data.rows) y_mean += row[y_col];
    y_mean /= static_cast<double>(data.rows.size());

    double sse = 0.0;
    double sst = 0.0;
    for (const auto& row : data.rows) {
      double pred = cpd.bias;
      for (std::size_t j = 0; j < cpd.parents.size(); ++j)
        pred += cpd.weights[j] * row[data.column_index(net.name(cpd.parents[j]))];
      const double r = row[y_col] - pred;
      sse += r * r;
      const double dy = row[y_col] - y_mean;
      sst += dy * dy;
    }
    FitDiagnostics diag;
    diag.node = net.name(i);
    diag.rmse = std::sqrt(sse / static_cast<double>(data.rows.size()));
    diag.r2 = sst > 0.0 ? 1.0 - sse / sst : 1.0;
    out.push_back(diag);
  }
  return out;
}

}  // namespace drivefi::bn
