#include "distance/eged_fast.h"

#include <algorithm>
#include <cmath>

#include "distance/simd/cells.h"

namespace strg::dist {

static_assert(kFeatureDim == simd::kCellDim,
              "simd cell helpers must agree on the feature dimension");
static_assert(kFeatureDim <= simd::kPaddedDim,
              "padded stride must fit a feature point");

namespace {

/// Relative safety margin applied to every analytic lower bound. The bounds
/// are admissible in exact arithmetic; the DP accumulates with ~1e-16
/// relative rounding per step, so shaving ~1e-12 keeps them admissible in
/// floating point with margin to spare while costing nothing measurable in
/// pruning power.
inline double Shave(double lb) {
  return lb <= 0.0 ? 0.0 : lb * (1.0 - 1e-12);
}

inline double Min3(double x, double y, double z) {
  double v = x;
  if (y < v) v = y;
  if (z < v) v = z;
  return v;
}

struct TlsFlatScratch {
  FlatSequence a, b;
};

TlsFlatScratch& ThreadLocalFlats() {
  static thread_local TlsFlatScratch scratch;
  return scratch;
}

}  // namespace

void FlatSequence::Assign(const Sequence& seq, const FeatureVec& g) {
  size_ = seq.size();
  values_.resize(kStride * size_);
  transposed_.resize(kFeatureDim * size_);
  gap_costs_.resize(size_);
  for (size_t i = 0; i < size_; ++i) {
    double* p = values_.data() + i * kStride;
    for (size_t k = 0; k < kFeatureDim; ++k) {
      p[k] = seq[i][k];
      transposed_[k * size_ + i] = seq[i][k];
    }
    for (size_t k = kFeatureDim; k < kStride; ++k) p[k] = 0.0;
  }
  // Per-point gap costs through the dispatched batch kernel: the per-lane
  // dim order matches PointDistance, and (q - p)^2 == (p - q)^2 exactly, so
  // the values are bit-identical to the former scalar loop at every tier.
  simd::ActiveOps().point_distance_batch(g.data(), values_.data(), size_,
                                         gap_costs_.data());
  // Left-to-right accumulation, matching the DP's first row exactly, so
  // gap_mass() is bit-identical to EgedMetric(seq, {}).
  gap_mass_ = 0.0;
  for (size_t i = 0; i < size_; ++i) gap_mass_ += gap_costs_[i];
  front_ = size_ > 0 ? seq.front() : FeatureVec{};
  back_ = size_ > 0 ? seq.back() : FeatureVec{};
}

void ReversedQuery::Assign(const FlatSequence& a) {
  size_ = a.size();
  t_.resize(kFeatureDim * size_);
  gaps_.resize(size_);
  const double* at = a.transposed();
  const size_t stride = a.t_stride();
  for (size_t k = 0; k < kFeatureDim; ++k) {
    const double* src = at + k * stride;
    double* dst = t_.data() + k * size_;
    for (size_t c = 0; c < size_; ++c) dst[c] = src[size_ - 1 - c];
  }
  const double* g = a.gap_costs();
  for (size_t c = 0; c < size_; ++c) gaps_[c] = g[size_ - 1 - c];
}

EgedWorkspace& ThreadLocalEgedWorkspace() {
  static thread_local EgedWorkspace ws;
  return ws;
}

double EgedLowerBound(const FlatSequence& a, const FlatSequence& b) {
  // Gap-mass bound: EGED_M is a metric (Theorem 2) and EGED_M(x, {}) is the
  // gap mass, so |gap_mass(a) - gap_mass(b)| <= EGED_M(a, b) by the
  // triangle inequality through the empty sequence.
  double lb = std::fabs(a.gap_mass() - b.gap_mass());
  if (!a.empty() && !b.empty()) {
    // Endpoint bound: the first edit op of any alignment consumes a_1 or
    // b_1 (or both), costing at least min(d(a1,b1), d(a1,g), d(b1,g)); when
    // max(m, n) >= 2 the alignment has at least two ops and its distinct
    // last op likewise pays for a_m or b_n.
    const double first = Min3(PointDistance(a.front(), b.front()),
                              a.gap_cost(0), b.gap_cost(0));
    double endpoint = first;
    if (a.size() >= 2 || b.size() >= 2) {
      const double last =
          Min3(PointDistance(a.back(), b.back()),
               a.gap_cost(a.size() - 1), b.gap_cost(b.size() - 1));
      endpoint = first + last;
    }
    lb = std::max(lb, endpoint);
  }
  return Shave(lb);
}

namespace {

/// The banded DP body (the pruned-DTW idea of Silva & Batista, adapted to
/// the EGED/ERP recurrence). Identical arithmetic, in identical order, to the
/// reference EgedMetric (eged.cpp) for every cell whose true value is <= tau
/// — which is what makes a completed run return the reference result
/// bit-for-bit whenever the true distance is <= tau.
///
/// Band invariant: [pb, pe] spans every column of the previous row whose
/// computed value is <= tau; columns outside behave as +infinity. A cell
/// with true value <= tau draws its optimal predecessor from a cell with
/// value <= tau (edit costs are non-negative), which by induction lies
/// inside the band and is exact; the remaining candidates are >= their true
/// values, which are >= the optimal one, so the three-way min — and hence
/// the cell — is computed exactly (ties share the same value, so this holds
/// bitwise). Each row is scanned from pb and stops once it is both past
/// pe + 1 (no finite vertical/diagonal candidates remain) and above tau
/// (the horizontal chain only accumulates non-negative gap costs).
///
/// On a vector tier, a row whose in-band region is at least kMinVecWidth
/// wide runs in two passes: a vectorized phase 1 computing
///   cur[j] = min(prev[j-1] + dist(a_i, b_j), prev[j] + ga)
/// through ops.eged_row (per-lane arithmetic in the scalar order, so phase-1
/// values are bitwise identical to the scalar candidates), then a scalar
/// phase 2 folding the loop-carried horizontal deletion
///   cur[j] = min(cur[j], cur[j-1] + bgap[j-1]).
/// min-reassociation is value-exact, so every in-band cell matches the
/// scalar min3 bitwise. The one divergence: the single-pass loop skips the
/// point distance (writing +inf) when all three candidates already exceed
/// tau, while the two-pass form computes every in-band cell. Affected cells
/// are > tau either way, so they are never `note`d — the band evolution,
/// abandon decisions, and every value the next row reads (indices [pb, pe],
/// all <= tau) stay identical, and so does the result.
///
/// When a row ends with no cell <= tau, or the final cell falls outside the
/// last band, every path to (m, n) costs more than tau: the DP abandons and
/// returns nextafter(tau) — the smallest value that is both > tau and <= d
/// for any true distance d > tau.
double BandedDp(const FlatSequence& a, const FlatSequence& b, double tau,
                EgedWorkspace* ws, bool* abandoned,
                const simd::KernelOps& ops) {
  const size_t m = a.size(), n = b.size();
  const double* agap = a.gap_costs();
  const double* bgap = b.gap_costs();
  const double* av = a.points();
  const double* bv = b.points();
  const double* bt = b.transposed();
  const size_t bstride = b.t_stride();
  const bool vector_rows = ops.tier != simd::Tier::kScalar;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Narrower rows are not worth the two-pass overhead (vector ramp-up plus
  // a second sweep); both forms give identical results.
  constexpr size_t kMinVecWidth = 12;

  double* prev = nullptr;
  double* cur = nullptr;
  ws->Rows(n + 1, &prev, &cur);

  // First row accumulates non-negative gap costs, so its band is a prefix.
  prev[0] = 0.0;
  size_t pb = 0, pe = n;
  for (size_t j = 1; j <= n; ++j) {
    prev[j] = prev[j - 1] + bgap[j - 1];
    if (prev[j] > tau) {
      pe = j - 1;
      break;
    }
  }

  for (size_t i = 1; i <= m; ++i) {
    const double ga_i = agap[i - 1];
    const double* ai = av + (i - 1) * FlatSequence::kStride;
    size_t cb = n + 1;  // first column of this row's band
    size_t ce = 0;      // last column of this row's band
    double left;        // cur[j - 1], tracked in a register
    size_t j;
    auto note = [&](double v) {
      if (v <= tau) {
        if (cb > j) cb = j;
        ce = j;
      }
    };
    if (pb == 0) {
      left = prev[0] + ga_i;
      cur[0] = left;
      j = 0;
      note(left);
      j = 1;
    } else {
      // Columns left of pb have only +inf predecessors. At j = pb the
      // diagonal (prev[pb-1]) and horizontal (cur[pb-1]) candidates are
      // both +inf, so the cell reduces to the vertical deletion — no point
      // distance needed.
      j = pb;
      left = prev[pb] + ga_i;
      cur[pb] = left;
      note(left);
      j = pb + 1;
    }
    // In-band phase: all three predecessors lie inside the previous band.
    if (vector_rows && j <= pe && pe - j + 1 >= kMinVecWidth) {
      // Phase 1 (vectorized), in place: cur[j] = min(subst, vertical).
      ops.eged_row(ai, bt, bstride, prev, ga_i, j, pe, cur);
      // Phase 2 (scalar): fold the horizontal chain.
      for (; j <= pe; ++j) {
        double v = cur[j];
        const double del_b = left + bgap[j - 1];
        if (del_b < v) v = del_b;
        cur[j] = v;
        left = v;
        note(v);
      }
    } else {
      // Interior band cells can still individually exceed tau; when every
      // candidate already does, the cell can never re-enter the band — its
      // value is only ever read as "+inf by a successor", so the point
      // distance (and its sqrt) is skipped outright.
      for (; j <= pe; ++j) {
        const double diag = prev[j - 1];
        const double del_a = prev[j] + ga_i;
        const double del_b = left + bgap[j - 1];
        if (diag > tau && del_a > tau && del_b > tau) {
          cur[j] = kInf;
          left = kInf;
          continue;
        }
        const double* bj = bv + (j - 1) * FlatSequence::kStride;
        double s = 0.0;
        for (size_t k = 0; k < kFeatureDim; ++k) {
          const double dk = ai[k] - bj[k];
          s += dk * dk;
        }
        const double subst = diag + std::sqrt(s);
        double v = subst;
        if (del_a < v) v = del_a;
        if (del_b < v) v = del_b;
        cur[j] = v;
        left = v;
        note(v);
      }
    }
    // Boundary column pe + 1: the vertical candidate (prev[pe+1]) is
    // outside the band, so the cell is min(subst, horizontal).
    if (j == pe + 1 && j <= n) {
      const double* bj = bv + (j - 1) * FlatSequence::kStride;
      double s = 0.0;
      for (size_t k = 0; k < kFeatureDim; ++k) {
        const double dk = ai[k] - bj[k];
        s += dk * dk;
      }
      const double subst = prev[j - 1] + std::sqrt(s);
      const double del_b = left + bgap[j - 1];
      double v = subst < del_b ? subst : del_b;
      cur[j] = v;
      left = v;
      note(v);
      ++j;
      // Horizontal tail: beyond pe + 1 every diagonal/vertical candidate is
      // +inf, so cells are just left + gap — no point distance, and the
      // chain only grows, so it stops at the first value above tau.
      for (; j <= n && left <= tau; ++j) {
        left += bgap[j - 1];
        cur[j] = left;
        note(left);
      }
    }
    if (cb > n) {
      *abandoned = true;
      return std::nextafter(tau, kInf);
    }
    pb = cb;
    pe = ce;
    std::swap(prev, cur);
  }
  if (pe == n) {
    *abandoned = false;
    return prev[n];
  }
  // The corner cell exceeded tau (or was never reached).
  *abandoned = true;
  return std::nextafter(tau, kInf);
}

/// Wavefront alternative to BandedDp for the wide-band regime. Sweeps the
/// DP matrix by anti-diagonals: every cell of one diagonal depends only on
/// the previous two diagonals, so the eged_diag kernel evaluates whole cells
/// — distance, sqrt, and the three-way min — with NO loop-carried chain (the
/// chain that limits the row-split form to the latency of one add+min per
/// column). Each cell's expression tree is exactly the reference one, so
/// every cell value — evaluation order notwithstanding — is bitwise
/// identical to the full reference DP, and the final corner IS the exact
/// distance d.
///
/// Bounded-contract harmonization with BandedDp: the banded body returns
/// the exact d whenever d <= tau (the corner is then computed exactly and
/// noted) and nextafter(tau) whenever d > tau (every computed cell is >=
/// its true value, so the corner can never be noted). Returning
/// d <= tau ? d : nextafter(tau) here therefore matches BandedDp bitwise —
/// including the abandoned flag and hence the stats — at every tau.
double BoundedDpWavefront(const FlatSequence& a, const FlatSequence& b,
                          double tau, EgedWorkspace* ws, bool* abandoned,
                          const simd::KernelOps& ops) {
  ReversedQuery& ra = ws->ReversedScratch();
  ra.Assign(a);
  const size_t m = a.size(), n = b.size();
  const double* agap = a.gap_costs();
  const double* bgap = b.gap_costs();
  const double* bt = b.transposed();
  const size_t bstride = b.t_stride();
  const double* art = ra.t();
  const size_t astride = ra.stride();
  const double* argap = ra.gaps();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Three rolling anti-diagonals, indexed by column j.
  double* dm2 = nullptr;
  double* dm1 = nullptr;
  double* dd = nullptr;
  ws->Rows3(n + 1, &dm2, &dm1, &dd);

  // Diagonals 0 and 1 are pure boundary cells; the prefix accumulators run
  // in the same left-to-right order as the reference first row and column
  // (0.0 + x == x exactly, so seeding with the first gap is identical).
  dm2[0] = 0.0;              // cell (0, 0)
  double col_acc = agap[0];  // cell (1, 0)
  double row_acc = bgap[0];  // cell (0, 1)
  dm1[0] = col_acc;
  dm1[1] = row_acc;

  for (size_t d = 2; d <= m + n; ++d) {
    if (d <= m) {
      col_acc += agap[d - 1];
      dd[0] = col_acc;  // cell (d, 0)
    }
    if (d <= n) {
      row_acc += bgap[d - 1];
      dd[d] = row_acc;  // cell (0, d)
    }
    // Interior cells (i = d - j, j) for j in [jb, je]. Cell c of the kernel
    // is column j = jb + c; its a-side point a_{d-j} sits at column
    // m - (d - j) of the reversed mirror, which ascends with c.
    const size_t jb = d > m ? d - m : 1;
    const size_t je = std::min(n, d - 1);
    if (jb <= je) {
      const size_t t0 = jb + m - d;
      ops.eged_diag(art + t0, astride, bt + (jb - 1), bstride, argap + t0,
                    bgap + (jb - 1), dm2 + (jb - 1), dm1 + jb,
                    dm1 + (jb - 1), je - jb + 1, dd + jb);
    }
    double* tmp = dm2;
    dm2 = dm1;
    dm1 = dd;
    dd = tmp;
  }
  const double v = dm1[n];
  if (v <= tau) {
    *abandoned = false;
    return v;
  }
  *abandoned = true;
  return std::nextafter(tau, kInf);
}

/// Wavefront pays for all m*n cells, so it wins exactly when band pruning
/// cannot bite: tau at least both gap masses means the entire first row and
/// column start inside the band (their prefix sums are bounded by the
/// masses), the signature of the wide-band regime. tau = +inf (the exact
/// kernel) always qualifies. Tiny sequences stay on the row path, whose
/// per-row overhead is lower.
inline bool WavefrontProfitable(const FlatSequence& a, const FlatSequence& b,
                                double tau) {
  if (a.size() < 4 || b.size() < 4) return false;
  return a.gap_mass() <= tau && b.gap_mass() <= tau;
}

/// Routes one bounded DP: vector tiers take the chain-free wavefront in the
/// wide-band regime, everything else runs the banded body. Both produce
/// bitwise-identical results at every tau, so routing is purely a speed
/// decision.
inline double BoundedDpDispatch(const FlatSequence& a, const FlatSequence& b,
                                double tau, EgedWorkspace* ws,
                                bool* abandoned, const simd::KernelOps& ops) {
  if (ops.tier != simd::Tier::kScalar && WavefrontProfitable(a, b, tau)) {
    return BoundedDpWavefront(a, b, tau, ws, abandoned, ops);
  }
  return BandedDp(a, b, tau, ws, abandoned, ops);
}

}  // namespace

double EgedMetricFlat(const FlatSequence& a, const FlatSequence& b,
                      EgedWorkspace* ws) {
  if (a.empty()) return b.gap_mass();
  if (b.empty()) return a.gap_mass();
  bool abandoned = false;
  return BoundedDpDispatch(a, b, std::numeric_limits<double>::infinity(), ws,
                           &abandoned, simd::ActiveOps());
}

double EgedMetricBounded(const FlatSequence& a, const FlatSequence& b,
                         double tau, EgedWorkspace* ws,
                         EgedKernelStats* stats) {
  if (a.empty() || b.empty()) {
    if (stats != nullptr) ++stats->dp_evals;
    return a.empty() ? b.gap_mass() : a.gap_mass();
  }
  if (tau < std::numeric_limits<double>::infinity()) {
    const double lb = EgedLowerBound(a, b);
    if (lb > tau) {
      if (stats != nullptr) ++stats->lb_prunes;
      return lb;
    }
  }
  if (stats != nullptr) ++stats->dp_evals;
  bool abandoned = false;
  const double v =
      BoundedDpDispatch(a, b, tau, ws, &abandoned, simd::ActiveOps());
  if (abandoned && stats != nullptr) ++stats->early_abandons;
  return v;
}

double EgedMetricFast(const Sequence& a, const Sequence& b,
                      const FeatureVec& g) {
  TlsFlatScratch& scratch = ThreadLocalFlats();
  scratch.a.Assign(a, g);
  scratch.b.Assign(b, g);
  return EgedMetricFlat(scratch.a, scratch.b, &ThreadLocalEgedWorkspace());
}

double EgedMetricBoundedSeq(const Sequence& a, const Sequence& b, double tau,
                            const FeatureVec& g) {
  TlsFlatScratch& scratch = ThreadLocalFlats();
  scratch.a.Assign(a, g);
  scratch.b.Assign(b, g);
  return EgedMetricBounded(scratch.a, scratch.b, tau,
                           &ThreadLocalEgedWorkspace());
}

}  // namespace strg::dist
