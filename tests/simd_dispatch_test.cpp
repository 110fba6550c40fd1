// ctest-labels: simd
//
// Dispatch-tier equivalence matrix. The simd layer's whole contract is that
// every tier is BITWISE identical to the scalar reference on the exact
// paths — not "close", identical — so these tests compare raw bit patterns
// (EXPECT_DOUBLE_EQ tolerates 4 ULP and would hide a drifting kernel).
// On a host whose best tier IS scalar the matrix degenerates to
// scalar-vs-scalar and passes vacuously; the forced-tier plumbing is still
// exercised.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/eged.h"
#include "distance/eged_fast.h"
#include "distance/lp.h"
#include "distance/simd/cells.h"
#include "distance/simd/dispatch.h"
#include "util/random.h"

namespace strg {
namespace {

namespace simd = dist::simd;

using dist::Dtw;
using dist::Edr;
using dist::EgedKernelStats;
using dist::EgedMetric;
using dist::EgedMetricBounded;
using dist::EgedMetricFlat;
using dist::EgedWorkspace;
using dist::FeatureVec;
using dist::FlatSequence;
using dist::kFeatureDim;
using dist::LpDistanceValue;
using dist::PointDistance;
using dist::ReversedQuery;
using dist::Sequence;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bit-pattern equality: the one comparison EXPECT_DOUBLE_EQ cannot do.
void ExpectBitEq(double x, double y, const char* what) {
  uint64_t xb = 0, yb = 0;
  std::memcpy(&xb, &x, sizeof(xb));
  std::memcpy(&yb, &y, sizeof(yb));
  EXPECT_EQ(xb, yb) << what << ": " << x << " vs " << y;
}

// Forces a tier for one scope and restores the previously active one (which
// may itself come from STRG_FORCE_SCALAR / STRG_SIMD_TIER).
class ScopedTier {
 public:
  explicit ScopedTier(simd::Tier tier)
      : saved_(simd::ActiveTier()), ok_(simd::ForceTier(tier)) {}
  ~ScopedTier() { simd::ForceTier(saved_); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
  bool ok() const { return ok_; }

 private:
  simd::Tier saved_;
  bool ok_;
};

Sequence RandomSequence(Rng* rng, size_t min_len, size_t max_len) {
  size_t len = static_cast<size_t>(rng->UniformInt(
      static_cast<int>(min_len), static_cast<int>(max_len)));
  Sequence s(len);
  FeatureVec cur{};
  for (size_t k = 0; k < kFeatureDim; ++k) cur[k] = rng->Uniform(0.0, 10.0);
  for (size_t i = 0; i < len; ++i) {
    for (size_t k = 0; k < kFeatureDim; ++k) cur[k] += rng->Gaussian(0.0, 0.5);
    s[i] = cur;
  }
  return s;
}

FeatureVec RandomGap(Rng* rng) {
  FeatureVec g{};
  for (size_t k = 0; k < kFeatureDim; ++k) g[k] = rng->Uniform(0.0, 5.0);
  return g;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, TierTableIsSelfConsistent) {
  const simd::Tier detected = simd::DetectedTier();
  EXPECT_TRUE(detected == simd::Tier::kScalar ||
              detected == simd::Tier::kAvx2 || detected == simd::Tier::kNeon);
  // At most one vector ISA can exist in one build (x86-64 xor aarch64).
  EXPECT_FALSE(simd::OpsForTier(simd::Tier::kAvx2) != nullptr &&
               simd::OpsForTier(simd::Tier::kNeon) != nullptr);
  // Scalar is unconditionally available and the detected tier must be too.
  ASSERT_NE(simd::OpsForTier(simd::Tier::kScalar), nullptr);
  ASSERT_NE(simd::OpsForTier(detected), nullptr);
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2,
                          simd::Tier::kNeon}) {
    EXPECT_NE(simd::TierName(tier), nullptr);
    const simd::KernelOps* ops = simd::OpsForTier(tier);
    if (ops == nullptr) continue;
    EXPECT_EQ(ops->tier, tier);
    // A tier with a missing kernel would crash at dispatch time; fail here.
    EXPECT_NE(ops->point_distance_batch, nullptr);
    EXPECT_NE(ops->eged_row, nullptr);
    EXPECT_NE(ops->dtw_row, nullptr);
    EXPECT_NE(ops->edr_row, nullptr);
    EXPECT_NE(ops->eged_diag, nullptr);
  }
}

TEST(SimdDispatch, ForceTierSwapsTheTableAndRejectsUnavailableTiers) {
  const simd::Tier before = simd::ActiveTier();
  {
    ScopedTier scalar(simd::Tier::kScalar);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
    EXPECT_EQ(simd::ActiveOps().tier, simd::Tier::kScalar);
    {
      ScopedTier best(simd::DetectedTier());
      ASSERT_TRUE(best.ok());
      EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
    }
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  }
  EXPECT_EQ(simd::ActiveTier(), before);

  for (simd::Tier tier : {simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (simd::OpsForTier(tier) != nullptr) continue;
    EXPECT_FALSE(simd::ForceTier(tier))
        << simd::TierName(tier) << " is unavailable yet ForceTier accepted it";
    EXPECT_EQ(simd::ActiveTier(), before)
        << "a rejected ForceTier must leave the active tier unchanged";
  }
}

// ---------------------------------------------------------------------------
// Flat-form construction: the dispatched point_distance_batch feeds
// FlatSequence's gap costs, so the build itself must be tier-invariant, and
// the padded layout must hold exactly as the vector kernels assume.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, FlatSequenceBuildIsTierInvariant) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    FeatureVec g = RandomGap(&rng);
    Sequence s = RandomSequence(&rng, 0, 40);
    FlatSequence at_scalar, at_best;
    {
      ScopedTier t(simd::Tier::kScalar);
      at_scalar.Assign(s, g);
    }
    {
      ScopedTier t(simd::DetectedTier());
      at_best.Assign(s, g);
    }
    ASSERT_EQ(at_scalar.size(), at_best.size());
    ExpectBitEq(at_scalar.gap_mass(), at_best.gap_mass(), "gap_mass");
    for (size_t i = 0; i < s.size(); ++i) {
      ExpectBitEq(at_scalar.gap_cost(i), at_best.gap_cost(i), "gap_cost");
    }
  }
}

TEST(SimdDispatch, FlatSequencePaddingLayoutHoldsEverywhere) {
  static_assert(FlatSequence::kStride == simd::kPaddedDim);
  static_assert(kFeatureDim == simd::kCellDim);
  Rng rng(102);
  FeatureVec g = RandomGap(&rng);
  Sequence s = RandomSequence(&rng, 5, 17);
  FlatSequence f(s, g);
  ASSERT_EQ(f.size(), s.size());
  ASSERT_EQ(f.t_stride(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const double* p = f.point(i);
    for (size_t k = 0; k < kFeatureDim; ++k) {
      ExpectBitEq(p[k], s[i][k], "point coordinate");
      ExpectBitEq(f.transposed()[k * f.t_stride() + i], s[i][k],
                  "transposed mirror");
    }
    for (size_t k = kFeatureDim; k < FlatSequence::kStride; ++k) {
      // Pads must be +0.0 exactly — vector tiers load them unmasked.
      ExpectBitEq(p[k], 0.0, "pad lane");
    }
    // The gap cost is the dispatched point distance against g, which must
    // equal the canonical scalar cell on the padded row.
    ExpectBitEq(f.gap_cost(i), simd::PointDistCell(g.data(), p), "gap cost");
  }
}

TEST(SimdDispatch, ReversedQueryMirrorsTheFlatFormBackToFront) {
  Rng rng(103);
  FeatureVec g = RandomGap(&rng);
  Sequence s = RandomSequence(&rng, 4, 23);
  FlatSequence f(s, g);
  ReversedQuery rev;
  rev.Assign(f);
  ASSERT_EQ(rev.size(), f.size());
  ASSERT_EQ(rev.stride(), f.size());
  const size_t n = f.size();
  for (size_t c = 0; c < n; ++c) {
    for (size_t k = 0; k < kFeatureDim; ++k) {
      ExpectBitEq(rev.t()[k * rev.stride() + c],
                  f.transposed()[k * f.t_stride() + (n - 1 - c)],
                  "reversed transposed column");
    }
    ExpectBitEq(rev.gaps()[c], f.gap_cost(n - 1 - c), "reversed gap cost");
  }
}

// ---------------------------------------------------------------------------
// The equivalence matrix proper: EGED exact, EGED bounded (values AND
// stats), and the DTW/EDR/Lp baselines.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ExactEgedIsBitwiseIdenticalAcrossTiers) {
  // tau = inf routes vector tiers through the wavefront DP on everything
  // with length >= 4, so this is the wavefront's primary bit-identity test;
  // shorter inputs cover the banded body's narrow-row path.
  Rng rng(104);
  EgedWorkspace ws;
  for (int trial = 0; trial < 120; ++trial) {
    FeatureVec g = trial % 3 == 0 ? FeatureVec{} : RandomGap(&rng);
    Sequence a = RandomSequence(&rng, 0, 80);
    Sequence b = RandomSequence(&rng, 0, 80);
    double ref, best;
    {
      ScopedTier t(simd::Tier::kScalar);
      FlatSequence fa(a, g), fb(b, g);
      ref = EgedMetricFlat(fa, fb, &ws);
    }
    {
      ScopedTier t(simd::DetectedTier());
      FlatSequence fa(a, g), fb(b, g);
      best = EgedMetricFlat(fa, fb, &ws);
    }
    ExpectBitEq(best, ref, "exact EGED across tiers");
    // And both must equal the allocating reference implementation.
    ExpectBitEq(ref, EgedMetric(a, b, g), "flat kernel vs reference");
  }
}

TEST(SimdDispatch, BoundedEgedMatchesScalarBitwiseIncludingStats) {
  // Sweeps taus across every routing regime: 0 (cascade / instant abandon),
  // below the exact distance (banded DP, often abandoning), at and above it
  // (completed DP), and +inf (wavefront). Both the returned value and the
  // prune/eval/abandon accounting must be identical — the tier is supposed
  // to be a pure speed decision, invisible in every observable.
  Rng rng(105);
  EgedWorkspace ws;
  auto check = [&](const Sequence& a, const Sequence& b, const FeatureVec& g) {
    const double exact = EgedMetric(a, b, g);
    const double taus[] = {0.0,         exact * 0.25, exact * 0.9,
                           exact,       exact * 1.5,  kInf};
    for (double tau : taus) {
      double ref, best;
      EgedKernelStats ref_stats, best_stats;
      {
        ScopedTier t(simd::Tier::kScalar);
        FlatSequence fa(a, g), fb(b, g);
        ref = EgedMetricBounded(fa, fb, tau, &ws, &ref_stats);
      }
      {
        ScopedTier t(simd::DetectedTier());
        FlatSequence fa(a, g), fb(b, g);
        best = EgedMetricBounded(fa, fb, tau, &ws, &best_stats);
      }
      ExpectBitEq(best, ref, "bounded EGED across tiers");
      if (tau >= exact) ExpectBitEq(ref, exact, "bounded EGED below tau");
      EXPECT_EQ(best_stats.dp_evals, ref_stats.dp_evals);
      EXPECT_EQ(best_stats.lb_prunes, ref_stats.lb_prunes);
      EXPECT_EQ(best_stats.early_abandons, ref_stats.early_abandons);
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    FeatureVec g = RandomGap(&rng);
    Sequence a = RandomSequence(&rng, 0, 48);
    Sequence b = RandomSequence(&rng, 0, 48);
    check(a, b, g);
  }
  // Empty and length-1 operands on either side: the empty-input guard and
  // the single-row / single-column DP shapes.
  FeatureVec g = RandomGap(&rng);
  const Sequence empty;
  const Sequence one = RandomSequence(&rng, 1, 1);
  const Sequence other_one = RandomSequence(&rng, 1, 1);
  const Sequence longer = RandomSequence(&rng, 12, 40);
  for (const Sequence* x : {&empty, &one, &longer}) {
    for (const Sequence* y : {&empty, &one, &other_one, &longer}) {
      check(*x, *y, g);
    }
  }
}

TEST(SimdDispatch, BaselineKernelsMatchScalarBitwise) {
  Rng rng(107);
  for (int trial = 0; trial < 80; ++trial) {
    Sequence a = RandomSequence(&rng, 1, 60);
    Sequence b = RandomSequence(&rng, 1, 60);
    // One epsilon sits exactly on a realized point distance so the EDR
    // match test's boundary ULP is exercised (the tiers must compare the
    // same sqrt'd value against it and take the same branch).
    const double eps_exact = PointDistance(a[0], b[0]);
    const double epsilons[] = {0.5, eps_exact, 4.0};
    double dtw_ref, lp_ref, edr_ref[3];
    {
      ScopedTier t(simd::Tier::kScalar);
      dtw_ref = Dtw(a, b);
      lp_ref = LpDistanceValue(a, b, 2.0);
      for (int e = 0; e < 3; ++e) edr_ref[e] = Edr(a, b, epsilons[e]);
    }
    {
      ScopedTier t(simd::DetectedTier());
      ExpectBitEq(Dtw(a, b), dtw_ref, "DTW across tiers");
      ExpectBitEq(LpDistanceValue(a, b, 2.0), lp_ref, "Lp across tiers");
      for (int e = 0; e < 3; ++e) {
        ExpectBitEq(Edr(a, b, epsilons[e]), edr_ref[e], "EDR across tiers");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases: the inputs mostly absent from random sweeps.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, EdgeCasesAreTierInvariant) {
  EgedWorkspace ws;
  FeatureVec g{};
  for (size_t k = 0; k < kFeatureDim; ++k) g[k] = 0.25 * double(k + 1);

  const Sequence empty;
  Sequence one_a(1), one_b(1);
  for (size_t k = 0; k < kFeatureDim; ++k) {
    one_a[0][k] = 1.0 + double(k);
    one_b[0][k] = 2.0 - double(k);
  }
  // Signed zeros: (-0.0) - (+0.0) = -0.0 squares to +0.0; the result must
  // not pick up a sign bit on any tier.
  Sequence zpos(6), zneg(6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t k = 0; k < kFeatureDim; ++k) {
      zpos[i][k] = 0.0;
      zneg[i][k] = i % 2 == 0 ? -0.0 : 0.0;
    }
  }
  // Subnormal coordinates: differences underflow gradually; every tier must
  // round them identically (no FTZ/DAZ anywhere in the build).
  Sequence sub_a(5), sub_b(5);
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (size_t i = 0; i < 5; ++i) {
    for (size_t k = 0; k < kFeatureDim; ++k) {
      sub_a[i][k] = denorm * double(3 * i + k + 1);
      sub_b[i][k] = denorm * double(7 * i + 2 * k + 5);
    }
  }

  struct Case {
    const Sequence* a;
    const Sequence* b;
    double tau;
  };
  const Case cases[] = {
      {&empty, &empty, kInf}, {&empty, &zpos, kInf},  {&zpos, &empty, 0.0},
      {&one_a, &one_b, kInf}, {&one_a, &one_b, 0.0},  {&one_a, &zpos, kInf},
      {&zpos, &zneg, kInf},   {&zpos, &zneg, 0.0},    {&sub_a, &sub_b, kInf},
      {&sub_a, &sub_b, 0.0},  {&zpos, &zpos, 0.0},
  };
  for (const Case& c : cases) {
    double ref, best;
    EgedKernelStats ref_stats, best_stats;
    {
      ScopedTier t(simd::Tier::kScalar);
      FlatSequence fa(*c.a, g), fb(*c.b, g);
      ref = EgedMetricBounded(fa, fb, c.tau, &ws, &ref_stats);
    }
    {
      ScopedTier t(simd::DetectedTier());
      FlatSequence fa(*c.a, g), fb(*c.b, g);
      best = EgedMetricBounded(fa, fb, c.tau, &ws, &best_stats);
    }
    ExpectBitEq(best, ref, "edge-case bounded EGED across tiers");
    EXPECT_EQ(best_stats.dp_evals, ref_stats.dp_evals);
    EXPECT_EQ(best_stats.lb_prunes, ref_stats.lb_prunes);
    EXPECT_EQ(best_stats.early_abandons, ref_stats.early_abandons);
    EXPECT_FALSE(std::signbit(best)) << "distance picked up a -0.0";
  }

  // tau = 0 against an identical sequence: 0 <= tau, so the kernel must
  // return the exact 0.0 (not an abandon sentinel) on every tier.
  for (simd::Tier tier : {simd::Tier::kScalar, simd::DetectedTier()}) {
    ScopedTier t(tier);
    FlatSequence fa(zpos, g), fb(zpos, g);
    ExpectBitEq(EgedMetricBounded(fa, fb, 0.0, &ws), 0.0,
                "self-distance at tau = 0");
  }
}

}  // namespace
}  // namespace strg
