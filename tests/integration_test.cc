// End-to-end behavioural tests tying the whole pipeline together: the
// adaptive algorithm on realistic workloads, invariants of the protocol
// under capacity pressure, and the paper's headline qualitative claims at
// test-sized scale (the bench/ binaries reproduce them at full scale).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/adaptive_policy.h"
#include "sim/experiments.h"
#include "sim/simulation.h"

namespace apc {
namespace {

TEST(IntegrationTest, AdaptiveIsNearBestFixedWidthOnRandomWalk) {
  // Sweep fixed widths to approximate the optimal cost, then check the
  // adaptive algorithm lands close (paper §4.2 reports within 1-5%; we
  // allow slack for the shorter test horizon).
  WalkExperiment exp;
  exp.horizon = 120000;
  exp.warmup = 5000;

  std::vector<double> widths;
  for (double w = 1.0; w <= 12.0; w += 0.5) widths.push_back(w);
  auto fixed = SweepFixedWidths(exp, widths);
  double best_fixed = kInfinity;
  for (const auto& r : fixed) best_fixed = std::min(best_fixed, r.cost_rate);

  // On stationary data a gentle adaptivity (small alpha) keeps the width
  // pinned near W*; alpha = 1 would oscillate over a full octave and pay
  // ~25% extra (see EXPERIMENTS.md, E3).
  WalkExperiment adaptive = exp;
  adaptive.fixed_width = 0.0;
  adaptive.alpha = 0.25;
  SimResult r = RunWalkExperiment(adaptive);
  EXPECT_LT(r.cost_rate, best_fixed * 1.15)
      << "adaptive=" << r.cost_rate << " best fixed=" << best_fixed;
}

TEST(IntegrationTest, ConvergedWidthTracksOptimalFixedWidth) {
  WalkExperiment exp;
  exp.horizon = 120000;
  exp.warmup = 5000;

  std::vector<double> widths;
  for (double w = 1.0; w <= 12.0; w += 0.5) widths.push_back(w);
  auto fixed = SweepFixedWidths(exp, widths);
  double best_w = 0.0, best_cost = kInfinity;
  for (size_t i = 0; i < widths.size(); ++i) {
    if (fixed[i].cost_rate < best_cost) {
      best_cost = fixed[i].cost_rate;
      best_w = widths[i];
    }
  }
  WalkExperiment adaptive = exp;
  adaptive.fixed_width = 0.0;
  SimResult r = RunWalkExperiment(adaptive);
  // Converged width within a factor ~2 of the empirically best width (the
  // cost curve is flat near the optimum, so width tolerance is loose).
  EXPECT_GT(r.mean_raw_width, best_w / 2.0);
  EXPECT_LT(r.mean_raw_width, best_w * 2.0);
}

TEST(IntegrationTest, LooserConstraintsReduceCost) {
  // More precision slack means fewer query-initiated refreshes and wider
  // intervals: overall cost must fall (paper Figures 7-9 trend).
  NetworkExperiment tight;
  tight.horizon = 2000;
  tight.warmup = 400;
  tight.delta_avg = 10e3;
  NetworkExperiment loose = tight;
  loose.delta_avg = 500e3;
  SimResult r_tight = RunNetworkAdaptive(tight);
  SimResult r_loose = RunNetworkAdaptive(loose);
  EXPECT_LT(r_loose.cost_rate, r_tight.cost_rate);
}

TEST(IntegrationTest, WiderDeltaAvgYieldsWiderIntervals) {
  // Paper Figures 4 vs 5: large delta_avg -> wide intervals.
  NetworkExperiment narrow;
  narrow.horizon = 2000;
  narrow.warmup = 400;
  narrow.delta_avg = 50e3;
  NetworkExperiment wide = narrow;
  wide.delta_avg = 500e3;
  SimResult r_narrow = RunNetworkAdaptive(narrow);
  SimResult r_wide = RunNetworkAdaptive(wide);
  EXPECT_GT(r_wide.mean_raw_width, r_narrow.mean_raw_width * 2.0);
}

TEST(IntegrationTest, CacheCapacityNeverExceeded) {
  NetworkExperiment exp;
  exp.horizon = 1200;
  exp.warmup = 200;
  exp.chi = 20;
  AdaptivePolicy prototype(exp.ToPolicyParams(), 99);
  size_t max_size = 0;
  RunIntervalSimulation(
      exp.ToSimConfig(), MakeTraceStreams(SharedNetworkTrace()), prototype,
      [&](int64_t, const CacheSystem& system) {
        max_size = std::max(max_size, system.cache().size());
      });
  EXPECT_LE(max_size, 20u);
  EXPECT_GT(max_size, 0u);
}

TEST(IntegrationTest, CachedIntervalsStayValidAfterEveryTick) {
  // Protocol invariant: after Tick's refreshes, every cached (static)
  // interval contains its source's exact value.
  NetworkExperiment exp;
  exp.horizon = 1000;
  exp.warmup = 100;
  AdaptivePolicy prototype(exp.ToPolicyParams(), 5);
  int violations = 0;
  RunIntervalSimulation(
      exp.ToSimConfig(), MakeTraceStreams(SharedNetworkTrace()), prototype,
      [&](int64_t now, const CacheSystem& system) {
        system.cache().ForEachEntry([&](int id, const ProtocolEntry& entry) {
          if (!entry.approx.Valid(system.source(id)->value(), now)) {
            ++violations;
          }
        });
      });
  EXPECT_EQ(violations, 0);
}

TEST(IntegrationTest, ExactPrecisionWorkloadPrefersDelta1EqualDelta0) {
  // Paper §4.4: for delta_avg = 0 (SUM queries), delta1 = delta0 wins over
  // delta1 = infinity because inexact intervals are useless.
  NetworkExperiment either_or;
  either_or.horizon = 2500;
  either_or.warmup = 500;
  either_or.delta_avg = 0.0;
  either_or.delta0 = 1e3;
  either_or.delta1 = 1e3;
  NetworkExperiment keep_intervals = either_or;
  keep_intervals.delta1 = kInfinity;
  SimResult r_either = RunNetworkAdaptive(either_or);
  SimResult r_keep = RunNetworkAdaptive(keep_intervals);
  EXPECT_LE(r_either.cost_rate, r_keep.cost_rate * 1.05);
}

TEST(IntegrationTest, LargeConstraintWorkloadPrefersDelta1Infinity) {
  // And the reverse for loose constraints (Figures 7-9: delta1 = delta0 is
  // flat and loses badly once delta_avg is large).
  NetworkExperiment either_or;
  either_or.horizon = 2500;
  either_or.warmup = 500;
  either_or.delta_avg = 300e3;
  either_or.delta0 = 1e3;
  either_or.delta1 = 1e3;
  NetworkExperiment keep_intervals = either_or;
  keep_intervals.delta1 = kInfinity;
  SimResult r_either = RunNetworkAdaptive(either_or);
  SimResult r_keep = RunNetworkAdaptive(keep_intervals);
  EXPECT_LT(r_keep.cost_rate, r_either.cost_rate);
}

TEST(IntegrationTest, ApproximateCachingBeatsExactCachingWithSlack) {
  // The headline claim: with nonzero precision slack, our algorithm with
  // delta1 = infinity outperforms the adaptive exact-caching baseline.
  NetworkExperiment exp;
  exp.horizon = 2500;
  exp.warmup = 500;
  exp.delta_avg = 500e3;
  SimResult ours = RunNetworkAdaptive(exp);
  SimResult exact = RunNetworkExactCaching(exp, {3, 8, 18, 35});
  EXPECT_LT(ours.cost_rate, exact.cost_rate);
}

TEST(IntegrationTest, ExactModeTracksExactCachingBaseline) {
  // Subsumption (Figures 10-13): with delta1 = delta0 our algorithm's cost
  // is close to the tuned [WJH97] baseline.
  NetworkExperiment exp;
  exp.horizon = 2500;
  exp.warmup = 500;
  exp.delta_avg = 0.0;
  exp.delta0 = 1e3;
  exp.delta1 = 1e3;
  SimResult ours = RunNetworkAdaptive(exp);
  SimResult exact = RunNetworkExactCaching(exp, {3, 8, 18, 35});
  EXPECT_LT(ours.cost_rate, exact.cost_rate * 1.35)
      << "ours=" << ours.cost_rate << " exact=" << exact.cost_rate;
}

TEST(IntegrationTest, StaleAdaptiveCompetitiveWithDivergenceCaching) {
  // Paper §4.7: modest improvement over Divergence Caching. At test scale
  // we assert ours is at least competitive (full comparison in the bench).
  StaleExperiment exp;
  exp.horizon = 15000;
  exp.warmup = 2000;
  exp.delta_avg = 7.0;
  SimResult ours = RunStaleAdaptive(exp);
  SimResult divergence = RunStaleDivergenceCaching(exp);
  EXPECT_LT(ours.cost_rate, divergence.cost_rate * 1.10);
}

TEST(IntegrationTest, MaxWorkloadBenefitsFromIntervalsAtExactPrecision) {
  // Paper §4.4/§4.6: for MAX queries, keeping intervals (delta1 = inf)
  // helps even when queries demand exact answers, because intervals
  // eliminate candidates.
  NetworkExperiment intervals;
  intervals.horizon = 2500;
  intervals.warmup = 500;
  intervals.delta_avg = 0.0;
  intervals.max_fraction = 1.0;
  intervals.delta0 = 1e3;
  intervals.delta1 = kInfinity;
  NetworkExperiment either_or = intervals;
  either_or.delta1 = 1e3;
  SimResult r_intervals = RunNetworkAdaptive(intervals);
  SimResult r_either = RunNetworkAdaptive(either_or);
  EXPECT_LT(r_intervals.cost_rate, r_either.cost_rate);
}

}  // namespace
}  // namespace apc
