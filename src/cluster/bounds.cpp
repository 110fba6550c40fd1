#include "cluster/bounds.h"

#include <algorithm>

namespace strg::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rounding margins for bound maintenance (nonnegative inputs only): a
/// stored bound may only ever move toward "looser" under floating-point
/// error, mirroring the 1e-12 shave EgedLowerBound applies for the same
/// reason (see the admissibility note in bounds.h).
double ShaveDown(double x) { return x * (1.0 - 1e-12); }
double InflateUp(double x) { return x * (1.0 + 1e-12); }

/// Largest distance whose classification score could still reach
/// `best_score`: score(sigma, d) >= B  <=>  d^2 <= 2 sigma^2 *
/// (-log sigma - kLogSqrt2Pi - B) in exact arithmetic; inflated so rounding
/// cannot shrink the window. The scans re-check inconclusive bounded results
/// in score space afterwards, so this radius only tunes how often the DP may
/// abandon — it never decides a comparison.
double ScoreTau(double sigma, double best_score) {
  double rad =
      2.0 * sigma * sigma * (-std::log(sigma) - kLogSqrt2Pi - best_score);
  double tau = rad > 0.0 ? std::sqrt(rad) : 0.0;
  return tau * (1.0 + 1e-9) + 1e-9;
}

void AddKernel(const dist::EgedKernelStats& ks, ClusterStats* stats) {
  stats->kernel_dp_evals += ks.dp_evals;
  stats->kernel_lb_prunes += ks.lb_prunes;
  stats->kernel_early_abandons += ks.early_abandons;
}

}  // namespace

BoundedAssigner::BoundedAssigner(const std::vector<dist::Sequence>& data,
                                 const dist::SequenceDistance& distance,
                                 bool use_bounds)
    : data_(&data),
      distance_(&distance),
      eged_(dynamic_cast<const dist::EgedMetricDistance*>(&distance)),
      bounds_(use_bounds && distance.IsMetric()),
      m_(data.size()) {
  if (eged_ != nullptr) {
    data_flats_.resize(m_);
    for (size_t j = 0; j < m_; ++j) {
      data_flats_[j].Assign(data[j], eged_->gap());
    }
  }
}

void BoundedAssigner::ColdReset() {
  ub_.assign(m_, kInf);
  assign_.assign(m_, kInvalid);
  lb_.assign(m_ * k_, 0.0);
}

void BoundedAssigner::SetCentroids(const std::vector<dist::Sequence>& centroids,
                                   ClusterStats* stats) {
  const size_t kk = centroids.size();
  const bool warm = bounds_ && k_ == kk && !cents_.empty();
  if (warm) {
    drift_.assign(kk, 0.0);
    for (size_t c = 0; c < kk; ++c) {
      if (cents_[c] == centroids[c]) continue;  // unmoved: drift is 0
      ++stats->drift_distances;
      if (eged_ != nullptr) {
        scratch_flat_.Assign(centroids[c], eged_->gap());
        drift_[c] = dist::EgedMetricFlat(cent_flats_[c], scratch_flat_,
                                         &dist::ThreadLocalEgedWorkspace());
        std::swap(cent_flats_[c], scratch_flat_);
      } else {
        drift_[c] = (*distance_)(cents_[c], centroids[c]);
      }
    }
    for (size_t j = 0; j < m_; ++j) {
      const uint32_t a = assign_[j];
      if (a != kInvalid && drift_[a] > 0.0 && ub_[j] != kInf) {
        ub_[j] = InflateUp(ub_[j] + drift_[a]);
      }
      double* row = &lb_[j * k_];
      for (size_t c = 0; c < kk; ++c) {
        if (drift_[c] <= 0.0) continue;
        double t = row[c] - drift_[c];
        row[c] = t <= 0.0 ? 0.0 : ShaveDown(t);
      }
    }
    cents_ = centroids;
    return;
  }
  cents_ = centroids;
  k_ = kk;
  if (eged_ != nullptr) {
    cent_flats_.resize(kk);
    for (size_t c = 0; c < kk; ++c) {
      cent_flats_[c].Assign(centroids[c], eged_->gap());
    }
  }
  if (bounds_) ColdReset();
}

void BoundedAssigner::ReplaceCentroid(size_t c, const dist::Sequence& seq,
                                      ClusterStats* stats) {
  (void)stats;
  cents_[c] = seq;
  if (eged_ != nullptr) cent_flats_[c].Assign(seq, eged_->gap());
  if (!bounds_) return;
  for (size_t j = 0; j < m_; ++j) {
    Lb(j, c) = 0.0;
    if (assign_[j] == c) ub_[j] = kInf;
  }
}

double BoundedAssigner::Eval(size_t j, size_t c, double tau,
                             ClusterStats* stats) {
  ++stats->assign_distances;
  if (eged_ != nullptr) {
    dist::EgedKernelStats ks;
    double v = dist::EgedMetricBounded(data_flats_[j], cent_flats_[c], tau,
                                       &dist::ThreadLocalEgedWorkspace(), &ks);
    AddKernel(ks, stats);
    return v;
  }
  return distance_->Bounded((*data_)[j], cents_[c], tau);
}

BoundedAssigner::Nearest BoundedAssigner::NearestCentroid(size_t j,
                                                          bool need_exact,
                                                          ClusterStats* stats) {
  if (!bounds_ || assign_[j] == kInvalid) {
    // Cold / unbounded: sequential running-tau scan. Bounded(tau) is exact
    // whenever d <= tau, so every strict improvement is exact and the
    // lowest-index argmin matches the exhaustive strict-< loop.
    size_t b_idx = 0;
    double best = kInf;
    for (size_t c = 0; c < k_; ++c) {
      double v = Eval(j, c, best, stats);
      if (bounds_) Lb(j, c) = v;
      if (v < best) {
        best = v;
        b_idx = c;
      }
    }
    if (bounds_) {
      assign_[j] = static_cast<uint32_t>(b_idx);
      ub_[j] = best;
    }
    return {b_idx, best};
  }

  const size_t a = assign_[j];
  double lbmin = kInf;
  for (size_t c = 0; c < k_; ++c) {
    if (c != a) lbmin = std::min(lbmin, LbV(j, c));
  }
  // Hamerly whole-scan skip: d(j,a) <= ub < lbmin <= d(j,c) for all c != a
  // makes the anchor the strict unique argmin — no evaluation needed.
  if (!need_exact && ub_[j] < lbmin) {
    ++stats->hamerly_skips;
    return {a, ub_[j]};
  }
  double d_a = Eval(j, a, ub_[j], stats);  // d <= ub, so this is exact
  Lb(j, a) = d_a;
  ub_[j] = d_a;
  if (d_a < lbmin) {
    ++stats->hamerly_skips;
    return {a, d_a};
  }

  size_t b_idx = a;
  double best = d_a;
  for (size_t c = 0; c < k_; ++c) {
    if (c == a) continue;
    double l = LbV(j, c);
    // Tie-aware prune against the anchor: d(j,c) >= l, so l > d_a loses
    // outright; at l == d_a, c can at most tie and loses unless its index
    // beats the anchor's. Every survivor is evaluated with the fixed tau =
    // d_a — a result above d_a can never win — so each stored lower bound
    // is independent of the scan order.
    if (l > d_a || (l == d_a && a < c)) {
      ++stats->assign_prunes;
      continue;
    }
    double v = Eval(j, c, d_a, stats);
    Lb(j, c) = v;
    if (v <= d_a && (v < best || (v == best && c < b_idx))) {
      best = v;
      b_idx = c;
    }
  }
  assign_[j] = static_cast<uint32_t>(b_idx);
  ub_[j] = best;
  return {b_idx, best};
}

BoundedAssigner::Scored BoundedAssigner::BestScoringComponent(
    size_t j, const std::vector<double>& sigmas, ClusterStats* stats) {
  if (!bounds_ || assign_[j] == kInvalid) {
    // Cold / unbounded: ascending scan with score-derived radii. An
    // abandoned evaluation still returns a distance lower bound, whose
    // score is an upper bound; only when that cannot settle the comparison
    // is one exact re-evaluation spent.
    size_t b_idx = 0;
    double best_s = -kInf;
    double b_d = 0.0;
    for (size_t c = 0; c < k_; ++c) {
      double tau = best_s == -kInf ? kInf : ScoreTau(sigmas[c], best_s);
      double v = Eval(j, c, tau, stats);
      if (bounds_) Lb(j, c) = v;
      if (v > tau) {
        double sv = ScoreLogDensity(sigmas[c], v);
        if (sv < best_s || (sv == best_s && b_idx < c)) continue;
        ++stats->bound_reevals;
        v = Eval(j, c, kInf, stats);
        if (bounds_) Lb(j, c) = v;
      }
      double s = ScoreLogDensity(sigmas[c], v);
      if (s > best_s || (s == best_s && c < b_idx)) {
        best_s = s;
        b_idx = c;
        b_d = v;
      }
    }
    if (bounds_) {
      assign_[j] = static_cast<uint32_t>(b_idx);
      ub_[j] = b_d;
    }
    return {b_idx, best_s, b_d};
  }

  const size_t a = assign_[j];
  double d_a = Eval(j, a, ub_[j], stats);  // exact (d <= ub)
  Lb(j, a) = d_a;
  ub_[j] = d_a;
  const double s_a = ScoreLogDensity(sigmas[a], d_a);
  size_t b_idx = a;
  double best_s = s_a;
  double b_d = d_a;
  for (size_t c = 0; c < k_; ++c) {
    if (c == a) continue;
    // The compiled score expression is monotone non-increasing in d (each
    // of square, divide, subtract rounds monotonically), so a distance
    // lower bound yields a score upper bound — comparisons stay in score
    // space and inherit the exhaustive scan's tie semantics. Prune and
    // radius are taken against the anchor's score, as in NearestCentroid.
    double sbar = ScoreLogDensity(sigmas[c], LbV(j, c));
    if (sbar < s_a || (sbar == s_a && a < c)) {
      ++stats->assign_prunes;
      continue;
    }
    const double tau = ScoreTau(sigmas[c], s_a);
    double v = Eval(j, c, tau, stats);
    Lb(j, c) = v;
    if (v > tau) {
      double sv = ScoreLogDensity(sigmas[c], v);
      if (sv < best_s || (sv == best_s && b_idx < c)) continue;
      ++stats->bound_reevals;
      v = Eval(j, c, kInf, stats);
      Lb(j, c) = v;
    }
    double s = ScoreLogDensity(sigmas[c], v);
    if (s > best_s || (s == best_s && c < b_idx)) {
      best_s = s;
      b_idx = c;
      b_d = v;
    }
  }
  assign_[j] = static_cast<uint32_t>(b_idx);
  ub_[j] = b_d;
  return {b_idx, best_s, b_d};
}

double BoundedAssigner::NearestDistance(size_t j, ClusterStats* stats) {
  if (!bounds_ || assign_[j] == kInvalid) {
    double best = kInf;
    for (size_t c = 0; c < k_; ++c) {
      double v = Eval(j, c, best, stats);
      if (bounds_) Lb(j, c) = v;
      best = std::min(best, v);
    }
    return best;
  }
  const size_t a = assign_[j];
  double d_a = Eval(j, a, ub_[j], stats);
  Lb(j, a) = d_a;
  ub_[j] = d_a;
  double best = d_a;
  // Sequential shrinking-tau scan (value only).
  for (size_t c = 0; c < k_; ++c) {
    if (c == a) continue;
    if (LbV(j, c) >= best) {
      ++stats->assign_prunes;
      continue;
    }
    double v = Eval(j, c, best, stats);
    Lb(j, c) = v;
    if (v < best) best = v;
  }
  return best;
}

double BoundedAssigner::CentroidDistance(size_t c1, size_t c2,
                                         ClusterStats* stats) const {
  ++stats->guard_distances;
  if (eged_ != nullptr) {
    return dist::EgedMetricFlat(cent_flats_[c1], cent_flats_[c2],
                                &dist::ThreadLocalEgedWorkspace());
  }
  return (*distance_)(cents_[c1], cents_[c2]);
}

void BoundedAssigner::ExactMatrix(const std::vector<dist::Sequence>& centroids,
                                  ThreadPool* pool,
                                  std::vector<std::vector<double>>* out,
                                  ClusterStats* stats) const {
  const size_t kk = centroids.size();
  out->assign(m_, std::vector<double>(kk, 0.0));
  stats->matrix_distances += static_cast<uint64_t>(m_) * kk;
  if (eged_ != nullptr) {
    std::vector<dist::FlatSequence> flats(kk);
    for (size_t c = 0; c < kk; ++c) {
      flats[c].Assign(centroids[c], eged_->gap());
    }
    auto row = [&](size_t j) {
      for (size_t c = 0; c < kk; ++c) {
        (*out)[j][c] = dist::EgedMetricFlat(data_flats_[j], flats[c],
                                            &dist::ThreadLocalEgedWorkspace());
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, m_, row);
    } else {
      for (size_t j = 0; j < m_; ++j) row(j);
    }
    return;
  }
  auto row = [&](size_t j) {
    for (size_t c = 0; c < kk; ++c) {
      (*out)[j][c] = (*distance_)((*data_)[j], centroids[c]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, m_, row);
  } else {
    for (size_t j = 0; j < m_; ++j) row(j);
  }
}

}  // namespace strg::cluster
