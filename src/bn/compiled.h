// Compiled inference engine for linear-Gaussian networks. The naive query
// path (LinearGaussianNetwork::do_posterior_mean) recompiles the full
// joint Gaussian and refactors the evidence block on EVERY call -- an
// O(n^3)-ish solve per candidate fault. But a fault-selection sweep asks
// millions of queries that differ only in their NUMBERS, not their SHAPE:
// the (intervention nodes, evidence nodes, query nodes) structure is fixed
// per fault-target variable. A CompiledNetwork therefore compiles the
// joint once, and caches one CompiledQuery per structure:
//
//   * graph surgery (Pearl's do) is performed once per intervention
//     structure; the mutilated covariance does not depend on the
//     intervened VALUES, and the mutilated mean is affine in them
//     (mu(v) = mu0 + G v, with G recovered by one mean-only forward
//     substitution per intervened node);
//   * the Schur-complement conditioning gain K = S_qb S_bb^-1 is computed
//     once from a cached Cholesky factorization of the evidence block;
//   * each query is then two small mat-vecs:
//       E[q | do(v), e] = mu0_q + G_q v + K (e - mu0_b - G_b v)
//     plus a batched entry point that sweeps many (v, e) rows in one pass.
//
// Results match the exact per-query path to rounding error (tolerance
// 1e-9, enforced by tests). All methods of a built CompiledQuery are
// const and lock-free. A plan is built outside the cache lock, so plans of
// different structures compile concurrently, and a CompiledNetwork may be
// shared across campaign worker threads.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bn/gaussian.h"
#include "bn/network.h"
#include "util/matrix.h"

namespace drivefi::bn {

// A prepared (interventions, evidence, query) structure. Value order in
// every call matches the name order given to CompiledNetwork::prepare /
// prepare_do. Immutable after construction; safe to share across threads.
class CompiledQuery {
 public:
  std::size_t intervention_count() const { return g_q_.cols(); }
  std::size_t evidence_count() const { return gain_.cols(); }
  std::size_t query_count() const { return mu0_q_.size(); }

  // Posterior mean of the query nodes given do(interventions = iv) and
  // evidence = ev, written to `out` (query_count() values); allocates
  // nothing. For plans prepared without interventions pass {}.
  void mean(std::span<const double> intervention_values,
            std::span<const double> evidence_values,
            std::span<double> out) const;
  // The same, returned as a vector.
  std::vector<double> mean(const std::vector<double>& intervention_values,
                           const std::vector<double>& evidence_values) const;
  // Observational shorthand (intervention_count() must be 0).
  std::vector<double> mean(const std::vector<double>& evidence_values) const;

  // Batched sweep: row i of the result is mean(intervention_rows row i,
  // evidence_rows row i). intervention_rows may be 0 x 0 when the plan has
  // no interventions. One pass, no per-row allocation beyond the output.
  util::Matrix mean_batch(const util::Matrix& intervention_values,
                          const util::Matrix& evidence_values) const;

  // Posterior covariance of the query nodes; like the gain, it depends
  // only on the structure, never on the evidence/intervention values.
  const util::Matrix& posterior_covariance() const { return post_cov_; }

 private:
  friend class CompiledNetwork;

  util::Vector mu0_q_;     // mutilated prior mean at query nodes (v = 0)
  util::Vector mu0_b_;     // mutilated prior mean at evidence nodes
  util::Matrix g_q_;       // d mu_q / d v  (|q| x |i|)
  util::Matrix g_b_;       // d mu_b / d v  (|b| x |i|)
  util::Matrix gain_;      // K = S_qb S_bb^-1  (|q| x |b|)
  util::Matrix post_cov_;  // S_qq - K S_bq  (|q| x |q|)
};

class CompiledNetwork {
 public:
  explicit CompiledNetwork(const LinearGaussianNetwork& net);

  const LinearGaussianNetwork& network() const { return net_; }
  // The cached observational joint (compiled once at construction).
  const MultivariateGaussian& joint() const { return joint_; }

  // Returns the cached plan for the structure, building it on first use.
  // The reference stays valid for the CompiledNetwork's lifetime. Query
  // names must be disjoint from evidence and intervention names, and
  // evidence must be disjoint from interventions (do() overrides
  // observation; drop such evidence before preparing -- the exact path in
  // do_posterior_mean does the same).
  const CompiledQuery& prepare(const std::vector<std::string>& evidence,
                               const std::vector<std::string>& query) const;
  const CompiledQuery& prepare_do(const std::vector<std::string>& interventions,
                                  const std::vector<std::string>& evidence,
                                  const std::vector<std::string>& query) const;

  // Number of distinct structures compiled so far.
  std::size_t plan_count() const;

 private:
  const CompiledQuery& plan_for(const std::vector<std::string>& interventions,
                                const std::vector<std::string>& evidence,
                                const std::vector<std::string>& query) const;
  // Compiles a plan from the network and joint alone; takes no lock.
  std::unique_ptr<CompiledQuery> compile(
      const std::vector<std::string>& interventions,
      const std::vector<std::string>& evidence,
      const std::vector<std::string>& query) const;

  LinearGaussianNetwork net_;
  MultivariateGaussian joint_;

  // Plans cached per structure key; unordered_map guarantees reference
  // stability of values, so returned CompiledQuery& survive rehashing.
  mutable std::mutex plans_mutex_;
  mutable std::unordered_map<std::string, std::unique_ptr<CompiledQuery>>
      plans_;
};

}  // namespace drivefi::bn
