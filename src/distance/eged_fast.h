#ifndef STRG_DISTANCE_EGED_FAST_H_
#define STRG_DISTANCE_EGED_FAST_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "distance/sequence.h"
#include "distance/simd/dispatch.h"

namespace strg::dist {

/// Flat structure-of-arrays form of a Sequence, prepared once against a
/// fixed gap point `g` so the metric EGED DP (Theorem 2 / ERP) pays one
/// PointDistance per cell and zero allocations per call.
///
/// Layout: `point(i)` is the contiguous coordinate block of point i, padded
/// from kFeatureDim (= 6) to simd::kPaddedDim (= 8) doubles with zeros so a
/// vector tier loads whole points without masking; `transposed()` is a
/// dim-major mirror (kFeatureDim rows of size() columns) that gives the DP
/// row kernels contiguous loads across consecutive columns. Alongside the
/// coordinates the flat form precomputes what the O(m+n) lower-bound
/// cascade needs: per-point gap costs d(x_i, g) (computed through the
/// dispatched point_distance_batch kernel — bit-identical at every tier),
/// their running total (the "gap mass" EGED_M(x, {})), and the endpoint
/// vectors.
class FlatSequence {
 public:
  /// Point-major stride in doubles (pads are zero-filled).
  static constexpr size_t kStride = simd::kPaddedDim;

  FlatSequence() = default;
  FlatSequence(const Sequence& seq, const FeatureVec& g) { Assign(seq, g); }

  /// Rebuilds the flat form in place, reusing capacity (the per-call
  /// flattening path of EgedMetricDistance runs on thread-local instances).
  void Assign(const Sequence& seq, const FeatureVec& g);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const double* points() const { return values_.data(); }
  const double* point(size_t i) const { return values_.data() + i * kStride; }
  /// Dim-major mirror: row k holds coordinate k of every point, so
  /// transposed()[k * t_stride() + j] == point(j)[k].
  const double* transposed() const { return transposed_.data(); }
  size_t t_stride() const { return size_; }
  const double* gap_costs() const { return gap_costs_.data(); }
  double gap_cost(size_t i) const { return gap_costs_[i]; }
  /// EGED_M(x, {}) — the cost of deleting the whole sequence against g,
  /// accumulated left-to-right exactly like the DP's first row/column.
  double gap_mass() const { return gap_mass_; }
  const FeatureVec& front() const { return front_; }
  const FeatureVec& back() const { return back_; }

 private:
  size_t size_ = 0;
  std::vector<double> values_;      ///< kStride * size_, point-major, padded
  std::vector<double> transposed_;  ///< kFeatureDim * size_, dim-major
  std::vector<double> gap_costs_;   ///< d(x_i, g) per point
  double gap_mass_ = 0.0;
  FeatureVec front_{};
  FeatureVec back_{};
};

/// Reversed dim-major mirror of a query sequence, built per call of the
/// wavefront DP: row k column c holds coordinate k of point size-1-c, and
/// gaps()[c] is that point's gap cost. Reversing the QUERY side is what
/// makes both operand streams of an anti-diagonal load contiguously
/// ascending (the b side ascends in j, the a side descends — which is
/// ascending in the reversed mirror).
class ReversedQuery {
 public:
  void Assign(const FlatSequence& a);
  const double* t() const { return t_.data(); }
  size_t stride() const { return size_; }
  const double* gaps() const { return gaps_.data(); }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
  std::vector<double> t_;     ///< kFeatureDim rows of size_ reversed columns
  std::vector<double> gaps_;  ///< gaps_[c] = gap cost of point size_-1-c
};

/// Reusable DP rows for the metric EGED kernel. One per thread (see
/// ThreadLocalEgedWorkspace) makes every kernel call allocation-free once
/// the high-water column count has been reached.
class EgedWorkspace {
 public:
  /// Returns two row buffers of at least `cols` doubles each.
  void Rows(size_t cols, double** prev, double** cur) {
    if (row0_.size() < cols) {
      row0_.resize(cols);
      row1_.resize(cols);
      row2_.resize(cols);
    }
    *prev = row0_.data();
    *cur = row1_.data();
  }

  /// Rows plus a third buffer: the wavefront DP's three rolling
  /// anti-diagonals (DTW uses the third as its cost row).
  void Rows3(size_t cols, double** prev, double** cur, double** stage) {
    Rows(cols, prev, cur);
    *stage = row2_.data();
  }

  /// Per-workspace reversed-query scratch for the wavefront DP.
  ReversedQuery& ReversedScratch() { return rev_; }

 private:
  std::vector<double> row0_, row1_, row2_;
  ReversedQuery rev_;
};

/// Per-thread workspace (and flat scratch) used by the Sequence-interface
/// fast paths; safe because kernels never call back into user code.
EgedWorkspace& ThreadLocalEgedWorkspace();

/// Outcome counters for the bounded kernel, accumulated across calls.
/// `dp_evals` counts kernels that entered the DP (full or abandoned) — the
/// quantity the paper reports as "distance computations"; `lb_prunes`
/// counts calls answered by the O(m+n) cascade without any DP;
/// `early_abandons` counts DPs truncated once every cell of a row exceeded
/// tau.
struct EgedKernelStats {
  uint64_t dp_evals = 0;
  uint64_t lb_prunes = 0;
  uint64_t early_abandons = 0;
};

/// O(m+n) lower bound on EgedMetric(a, b) for flat forms built against the
/// same gap point. Max of
///  - the gap-mass bound |EGED_M(a, {}) - EGED_M(b, {})| (triangle
///    inequality of the metric against the empty sequence), and
///  - the endpoint bound: any alignment's first edit op consumes a_1 or b_1
///    (cost >= min(d(a1, b1), d(a1, g), d(b1, g))) and, when max(m, n) >= 2,
///    its distinct last op likewise pays for a_m or b_n.
/// Shaved by a ~1e-12 relative margin so floating-point rounding can never
/// push the bound above the exact DP value.
double EgedLowerBound(const FlatSequence& a, const FlatSequence& b);

/// Exact metric EGED over flat forms: numerically identical (same
/// operations in the same order) to EgedMetric on the originating
/// sequences, with zero allocations beyond the workspace.
double EgedMetricFlat(const FlatSequence& a, const FlatSequence& b,
                      EgedWorkspace* ws);

/// Bounded metric EGED. Contract:
///  - whenever the true distance d satisfies d <= tau, returns exactly the
///    value EgedMetric would return;
///  - otherwise it may stop early (lower-bound cascade, or abandoning the
///    DP once a whole row exceeds tau) and return some v with
///    tau < v <= d — still a valid lower bound, and proof the candidate
///    cannot beat tau.
/// tau = +infinity degenerates to the exact kernel. `stats` (optional)
/// accrues prune/abandon accounting.
double EgedMetricBounded(const FlatSequence& a, const FlatSequence& b,
                         double tau, EgedWorkspace* ws,
                         EgedKernelStats* stats = nullptr);

/// Sequence-interface conveniences: flatten into thread-local scratch and
/// run the flat kernels. Exact-same values as EgedMetric(a, b, g), without
/// its four heap allocations per call.
double EgedMetricFast(const Sequence& a, const Sequence& b,
                      const FeatureVec& g = FeatureVec{});
double EgedMetricBoundedSeq(const Sequence& a, const Sequence& b, double tau,
                            const FeatureVec& g = FeatureVec{});

}  // namespace strg::dist

#endif  // STRG_DISTANCE_EGED_FAST_H_
