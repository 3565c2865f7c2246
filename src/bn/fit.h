// Maximum-likelihood estimation of linear-Gaussian CPDs from data. The
// paper trains its 3-TBN on golden (fault-free) traces of the ADS; this is
// the corresponding fitting step: per-node ridge-regularized least squares
// on [parents -> node], residual variance as the ML noise estimate.
#pragma once

#include <string>
#include <vector>

#include "bn/network.h"

namespace drivefi::bn {

// A dataset is column-labeled; each row assigns every column one value.
struct Dataset {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  std::size_t column_index(const std::string& name) const;
  void add_row(std::vector<double> row);
};

struct FitOptions {
  // Tikhonov regularization for near-collinear golden traces (e.g. cruise
  // segments where speed barely varies).
  double ridge = 1e-8;
  // Floor on residual variance so deterministic relationships stay
  // invertible downstream.
  double min_variance = 1e-10;
};

struct NodeSpec {
  std::string name;
  std::vector<std::string> parents;
};

// One node's fitted CPD: weights in the spec's parent order.
struct FittedCpd {
  std::vector<double> weights;
  double bias = 0.0;
  double variance = 0.0;
};

// Fits the CPD of one spec, reading node/parent values from the dataset by
// column name; every sum runs over the rows in row order. Reads `data`
// only, so the nodes of one dataset may be fitted concurrently.
FittedCpd fit_node(const NodeSpec& spec, const Dataset& data,
                   const FitOptions& options = {});

// Fits one CPD per spec with fit_node and adds them in spec order. The DAG
// is induced by the specs (parents must be declared before children).
LinearGaussianNetwork fit_network(const std::vector<NodeSpec>& specs,
                                  const Dataset& data,
                                  const FitOptions& options = {});

// Per-node goodness-of-fit diagnostics on held-out data.
struct FitDiagnostics {
  std::string node;
  double rmse = 0.0;
  double r2 = 0.0;
};

std::vector<FitDiagnostics> evaluate_fit(const LinearGaussianNetwork& net,
                                         const Dataset& data);

}  // namespace drivefi::bn
