#ifndef STRG_CLUSTER_BOUNDS_H_
#define STRG_CLUSTER_BOUNDS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/clustering.h"
#include "distance/eged.h"
#include "util/thread_pool.h"

namespace strg::cluster {

/// log(sqrt(2*pi)), shared by the EM density and the bounded score scans so
/// the two paths evaluate the exact same expression.
inline constexpr double kLogSqrt2Pi = 0.9189385332046727;

/// log of a component's weighted density at distance d (Equation 3). Lives
/// here (not in em.cpp) because the bounded classification scan must compute
/// scores with bit-identical arithmetic to the exhaustive E-step.
inline double LogComponentDensity(double w, double sigma, double d) {
  return std::log(w) - std::log(sigma) - kLogSqrt2Pi -
         (d * d) / (2.0 * sigma * sigma);
}

/// Uniform-prior classification score. log(1.0) is +0.0 and 0.0 - x == -x
/// exactly, so this is the same double LogComponentDensity(1.0, sigma, d)
/// produces.
inline double ScoreLogDensity(double sigma, double d) {
  return LogComponentDensity(1.0, sigma, d);
}

/// Triangle-inequality bounded centroid assignment (Elkan 2003 / Hamerly
/// 2010), specialized for the cluster module's scans.
///
/// State per item j: an anchor centroid assign_[j] with an upper bound
/// ub_[j] >= d(j, anchor), and per-(item, centroid) lower bounds
/// lb_[j*k + c] <= d(j, c). After every centroid move the bounds are
/// loosened by the centroid's drift delta = d(old_c, new_c): by the triangle
/// inequality d(j, new_c) ∈ [d(j, old_c) - delta, d(j, old_c) + delta], so
/// lb -= delta and ub += delta stay admissible for ANY displacement —
/// including M-step dead-component reseeds. The anti-collapse guard instead
/// calls ReplaceCentroid, which zeroes that centroid's lower bounds and
/// widens the affected anchors (the reseed target is arbitrary, and a huge
/// drift would poison every item's bound for that centroid anyway).
///
/// A scan then skips any centroid whose lower bound already exceeds the
/// current best (or whole scans, Hamerly-style, when ub < min lb), and
/// evaluates each survivor through the early-abandoning DP
/// (EgedMetricBounded) with tau = the anchor's distance.
///
/// Admissibility in floating point: the triangle inequality holds for the
/// TRUE metric values, while both the stored bounds and the scan comparands
/// are computed (rounded) values. Each computed EGED carries a relative
/// error of at most ~(m+n) ulp (sums of <= m+n point distances; min() does
/// not amplify), about 3e-14 at the sequence lengths this repo produces, so
/// every bound update is shaved/inflated by a 1e-12 relative margin — the
/// same margin EgedLowerBound already uses — leaving ~30x headroom. The
/// equivalence tests exercise this with adversarial duplicates and ties.
///
/// Results are bit-identical to the exhaustive scans: every pruning rule is
/// tie-aware (tracking the would-be winner index) so the lowest-index
/// argmin/argmax of the exhaustive loop is reproduced exactly, and winner
/// distances are always exact evaluations (Bounded(tau) is exact whenever
/// d <= tau, and the winner satisfies that by construction).
///
/// Modes:
///  - bounded(): use_bounds && distance.IsMetric() — full Elkan/Hamerly
///    machinery. Never enabled for non-metric measures (inadmissible).
///  - batched(): the distance is a bare EgedMetricDistance — scans and
///    matrices run the flat kernels on cached flat forms (bitwise identical
///    to the Sequence-interface calls). Otherwise evaluations go through
///    SequenceDistance::Bounded.
///
/// Not thread-safe: scans mutate shared bound state. ExactMatrix is const
/// and may use a pool internally (rows are independent).
class BoundedAssigner {
 public:
  BoundedAssigner(const std::vector<dist::Sequence>& data,
                  const dist::SequenceDistance& distance, bool use_bounds);

  bool bounded() const { return bounds_; }
  bool batched() const { return eged_ != nullptr; }

  /// Installs a full centroid set. First call (or a k change) cold-resets
  /// the bounds; subsequent calls compute per-centroid drift and loosen the
  /// existing bounds instead of discarding them.
  void SetCentroids(const std::vector<dist::Sequence>& centroids,
                    ClusterStats* stats);

  /// Replaces one centroid with an arbitrary sequence (anti-collapse
  /// reseed): lb[*][c] = 0, and ub widens to +inf for items anchored on c.
  void ReplaceCentroid(size_t c, const dist::Sequence& seq,
                       ClusterStats* stats);

  struct Nearest {
    size_t index;
    /// Exact d(j, index) when the scan ran (or need_exact was set); on a
    /// Hamerly whole-scan skip with !need_exact this is only the upper
    /// bound ub_[j] (the index is still the exact argmin).
    double distance;
  };
  /// Lowest-index argmin over the installed centroids, bit-identical to the
  /// exhaustive strict-< ascending scan.
  Nearest NearestCentroid(size_t j, bool need_exact, ClusterStats* stats);

  struct Scored {
    size_t index;
    double score;     ///< ScoreLogDensity(sigmas[index], distance)
    double distance;  ///< exact d(j, index)
  };
  /// Lowest-index argmax of ScoreLogDensity(sigmas[c], d(j, c)) — the CEM
  /// classification scan — bit-identical to the exhaustive strict-> loop.
  /// Pruning happens in score space: a distance lower bound gives a score
  /// upper bound because the compiled score expression is monotone
  /// non-increasing in d (each of square, divide, subtract rounds
  /// monotonically).
  Scored BestScoringComponent(size_t j, const std::vector<double>& sigmas,
                              ClusterStats* stats);

  /// Exact min_c d(j, c) (value only, for the guard's worst-covered-item
  /// scan). Sequential shrinking-tau scan with lower-bound skips.
  double NearestDistance(size_t j, ClusterStats* stats);

  /// Exact d(centroid c1, centroid c2) between installed centroids, the
  /// same double the scalar distance() call produces.
  double CentroidDistance(size_t c1, size_t c2, ClusterStats* stats) const;

  /// Full exact item x centroid matrix for an arbitrary centroid set
  /// (deferred EM log-likelihood, KHM's soft-membership scan). Flat kernels
  /// when batched(); rows fan out over `pool` when provided.
  void ExactMatrix(const std::vector<dist::Sequence>& centroids,
                   ThreadPool* pool, std::vector<std::vector<double>>* out,
                   ClusterStats* stats) const;

 private:
  static constexpr uint32_t kInvalid = std::numeric_limits<uint32_t>::max();

  double Eval(size_t j, size_t c, double tau, ClusterStats* stats);
  double& Lb(size_t j, size_t c) { return lb_[j * k_ + c]; }
  double LbV(size_t j, size_t c) const { return lb_[j * k_ + c]; }
  void ColdReset();

  const std::vector<dist::Sequence>* data_;
  const dist::SequenceDistance* distance_;
  const dist::EgedMetricDistance* eged_;  ///< non-null => flat kernels
  bool bounds_;
  size_t m_;
  size_t k_ = 0;

  std::vector<dist::FlatSequence> data_flats_;  ///< flat mode only
  std::vector<dist::Sequence> cents_;           ///< installed centroids
  std::vector<dist::FlatSequence> cent_flats_;  ///< flat mode only

  std::vector<double> ub_;        ///< per item, +inf when unknown
  std::vector<uint32_t> assign_;  ///< anchor centroid per item
  std::vector<double> lb_;        ///< m_ x k_, row-major, 0 when unknown
  std::vector<double> drift_;     ///< scratch for SetCentroids

  dist::FlatSequence scratch_flat_;  ///< SetCentroids drift scratch
};

}  // namespace strg::cluster

#endif  // STRG_CLUSTER_BOUNDS_H_
