#include "bn/compiled.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/span.h"

namespace drivefi::bn {

using util::Cholesky;
using util::Matrix;
using util::Vector;

namespace {

// Mean-only forward substitution mu = (I - B)^-1 b over the network's
// (possibly mutilated) weight structure with an overridden bias vector.
// O(n * max_parents); used to recover the columns of G = d mu / d v.
Vector mean_with_bias(const LinearGaussianNetwork& net, const Vector& bias) {
  Vector mu(net.node_count());
  for (NodeId i : net.dag().topological_order()) {
    const auto& cpd = net.cpd(i);
    double m = bias[i];
    for (std::size_t j = 0; j < cpd.parents.size(); ++j)
      m += cpd.weights[j] * mu[cpd.parents[j]];
    mu[i] = m;
  }
  return mu;
}

std::vector<std::size_t> resolve_ids(const LinearGaussianNetwork& net,
                                     const std::vector<std::string>& names) {
  std::vector<std::size_t> ids;
  ids.reserve(names.size());
  for (const auto& name : names) ids.push_back(net.id(name));
  return ids;
}

}  // namespace

void CompiledQuery::mean(std::span<const double> intervention_values,
                         std::span<const double> evidence_values,
                         std::span<double> out) const {
  const std::size_t nq = query_count();
  const std::size_t nb = evidence_count();
  const std::size_t ni = intervention_count();
  // Real checks, not asserts: the exact path throws on misuse, and this
  // replaces it in Release campaigns where asserts compile out.
  if (intervention_values.size() != ni || evidence_values.size() != nb ||
      out.size() != nq)
    throw std::invalid_argument(
        "CompiledQuery::mean: value counts do not match the plan structure");

  // out_i = mu0_q_i + sum_j G_q(i, j) v_j + sum_j K(i, j) r_j with the
  // residual r = e - mu0_b - G_b v, each sum added in index order. Each
  // r_j is folded into every out_i as soon as it is known, so no residual
  // vector is kept.
  for (std::size_t i = 0; i < nq; ++i) {
    double m = mu0_q_[i];
    for (std::size_t j = 0; j < ni; ++j)
      m += g_q_(i, j) * intervention_values[j];
    out[i] = m;
  }
  for (std::size_t j = 0; j < nb; ++j) {
    double r = evidence_values[j] - mu0_b_[j];
    for (std::size_t k = 0; k < ni; ++k)
      r -= g_b_(j, k) * intervention_values[k];
    for (std::size_t i = 0; i < nq; ++i) out[i] += gain_(i, j) * r;
  }
}

std::vector<double> CompiledQuery::mean(
    const std::vector<double>& intervention_values,
    const std::vector<double>& evidence_values) const {
  std::vector<double> out(query_count());
  mean(intervention_values, evidence_values, out);
  return out;
}

std::vector<double> CompiledQuery::mean(
    const std::vector<double>& evidence_values) const {
  if (intervention_count() != 0)
    throw std::invalid_argument(
        "CompiledQuery::mean: plan has interventions; pass their values");
  return mean({}, evidence_values);
}

Matrix CompiledQuery::mean_batch(const Matrix& intervention_values,
                                 const Matrix& evidence_values) const {
  const std::size_t nq = query_count();
  const std::size_t nb = evidence_count();
  const std::size_t ni = intervention_count();
  const std::size_t rows = evidence_values.rows();
  if (evidence_values.cols() != nb ||
      (ni != 0 && (intervention_values.rows() != rows ||
                   intervention_values.cols() != ni)))
    throw std::invalid_argument(
        "CompiledQuery::mean_batch: matrix shapes do not match the plan "
        "structure");
  static obs::Counter& batched_metric =
      obs::metrics().counter("bn.batched_queries");
  static obs::Counter& rows_metric =
      obs::metrics().counter("bn.batched_rows");
  batched_metric.add();
  rows_metric.add(rows);

  Matrix out(rows, nq);
  std::vector<double> residual(nb);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < nb; ++i) {
      double v = evidence_values(r, i) - mu0_b_[i];
      for (std::size_t j = 0; j < ni; ++j)
        v -= g_b_(i, j) * intervention_values(r, j);
      residual[i] = v;
    }
    for (std::size_t i = 0; i < nq; ++i) {
      double m = mu0_q_[i];
      for (std::size_t j = 0; j < ni; ++j)
        m += g_q_(i, j) * intervention_values(r, j);
      for (std::size_t j = 0; j < nb; ++j) m += gain_(i, j) * residual[j];
      out(r, i) = m;
    }
  }
  return out;
}

CompiledNetwork::CompiledNetwork(const LinearGaussianNetwork& net)
    : net_(net), joint_(net_.joint()) {}

const CompiledQuery& CompiledNetwork::prepare(
    const std::vector<std::string>& evidence,
    const std::vector<std::string>& query) const {
  return plan_for({}, evidence, query);
}

const CompiledQuery& CompiledNetwork::prepare_do(
    const std::vector<std::string>& interventions,
    const std::vector<std::string>& evidence,
    const std::vector<std::string>& query) const {
  return plan_for(interventions, evidence, query);
}

std::size_t CompiledNetwork::plan_count() const {
  std::lock_guard<std::mutex> lock(plans_mutex_);
  return plans_.size();
}

const CompiledQuery& CompiledNetwork::plan_for(
    const std::vector<std::string>& interventions,
    const std::vector<std::string>& evidence,
    const std::vector<std::string>& query) const {
  // Structure key: names joined with a separator no node name contains.
  std::string key = "do:";
  for (const auto& n : interventions) (key += n) += '\x1f';
  key += "|e:";
  for (const auto& n : evidence) (key += n) += '\x1f';
  key += "|q:";
  for (const auto& n : query) (key += n) += '\x1f';

  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    const auto found = plans_.find(key);
    if (found != plans_.end()) {
      obs::metrics().counter("bn.plan_cache_hits").add();
      return *found->second;
    }
  }
  // Two threads that miss on one structure both compile it. The first to
  // insert counts the miss and the other a hit, dropping its equal copy, so
  // the counters read the same at any thread count.
  std::unique_ptr<CompiledQuery> plan = compile(interventions, evidence, query);
  std::lock_guard<std::mutex> lock(plans_mutex_);
  const auto [it, inserted] = plans_.emplace(std::move(key), std::move(plan));
  obs::metrics()
      .counter(inserted ? "bn.plan_cache_misses" : "bn.plan_cache_hits")
      .add();
  return *it->second;
}

std::unique_ptr<CompiledQuery> CompiledNetwork::compile(
    const std::vector<std::string>& interventions,
    const std::vector<std::string>& evidence,
    const std::vector<std::string>& query) const {
  DFI_SPAN("bn.compile_plan");

  const std::vector<std::size_t> i_idx = resolve_ids(net_, interventions);
  const std::vector<std::size_t> b_idx = resolve_ids(net_, evidence);
  const std::vector<std::size_t> q_idx = resolve_ids(net_, query);
  {
    std::vector<bool> taken(net_.node_count(), false);
    for (std::size_t id : i_idx) {
      if (taken[id])
        throw std::invalid_argument("CompiledNetwork: duplicate intervention " +
                                    net_.name(id));
      taken[id] = true;
    }
    for (std::size_t id : b_idx) {
      if (taken[id])
        throw std::invalid_argument(
            "CompiledNetwork: evidence overlaps interventions or repeats: " +
            net_.name(id));
      taken[id] = true;
    }
    for (std::size_t id : q_idx)
      if (taken[id])
        throw std::invalid_argument(
            "CompiledNetwork: query node is evidence or intervened: " +
            net_.name(id));
  }

  auto plan = std::make_unique<CompiledQuery>();

  // Joint of the (possibly mutilated) network. The covariance depends only
  // on which nodes are severed, never on the intervened values; the mean
  // with all intervention values at 0 is the affine base mu0.
  const Vector* mu0 = nullptr;
  const Matrix* sigma = nullptr;
  LinearGaussianNetwork mutilated;
  MultivariateGaussian mutilated_joint;
  if (i_idx.empty()) {
    mu0 = &joint_.mean();
    sigma = &joint_.covariance();
  } else {
    std::vector<Assignment> zeros;
    zeros.reserve(interventions.size());
    for (const auto& name : interventions) zeros.push_back({name, 0.0});
    mutilated = net_.intervene(zeros);
    mutilated_joint = mutilated.joint();
    mu0 = &mutilated_joint.mean();
    sigma = &mutilated_joint.covariance();
  }

  const std::size_t nq = q_idx.size();
  const std::size_t nb = b_idx.size();
  const std::size_t ni = i_idx.size();

  plan->mu0_q_ = Vector(nq);
  for (std::size_t i = 0; i < nq; ++i) plan->mu0_q_[i] = (*mu0)[q_idx[i]];
  plan->mu0_b_ = Vector(nb);
  for (std::size_t i = 0; i < nb; ++i) plan->mu0_b_[i] = (*mu0)[b_idx[i]];

  // G columns: sensitivity of the mutilated mean to each intervened value,
  // (I - B)^-1 e_i by one mean-only forward substitution per intervention.
  plan->g_q_ = Matrix(nq, ni);
  plan->g_b_ = Matrix(nb, ni);
  for (std::size_t j = 0; j < ni; ++j) {
    Vector basis(net_.node_count());
    basis[i_idx[j]] = 1.0;
    const Vector g = mean_with_bias(mutilated, basis);
    for (std::size_t i = 0; i < nq; ++i) plan->g_q_(i, j) = g[q_idx[i]];
    for (std::size_t i = 0; i < nb; ++i) plan->g_b_(i, j) = g[b_idx[i]];
  }

  // Schur-complement conditioning gain from the cached factorization:
  // K = S_qb S_bb^-1, computed as (S_bb^-1 S_bq)^T via Cholesky solves --
  // the same construction the exact path performs per query, done once.
  const Matrix s_qb = sigma->select(q_idx, b_idx);
  if (nb > 0) {
    const Cholesky chol(sigma->select(b_idx, b_idx));
    plan->gain_ = chol.solve(s_qb.transposed()).transposed();
  } else {
    plan->gain_ = Matrix(nq, 0);
  }

  Matrix post_cov = sigma->select(q_idx, q_idx);
  if (nb > 0) post_cov -= plan->gain_ * s_qb.transposed();
  for (std::size_t r = 0; r < post_cov.rows(); ++r)
    for (std::size_t c = r + 1; c < post_cov.cols(); ++c) {
      const double v = 0.5 * (post_cov(r, c) + post_cov(c, r));
      post_cov(r, c) = v;
      post_cov(c, r) = v;
    }
  plan->post_cov_ = std::move(post_cov);
  return plan;
}

}  // namespace drivefi::bn
