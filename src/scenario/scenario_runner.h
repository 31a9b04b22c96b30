#ifndef APC_SCENARIO_SCENARIO_RUNNER_H_
#define APC_SCENARIO_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>

#include "scenario/scenario.h"

namespace apc {

/// The precision-setting policies a scenario is replayed under — the
/// paper's Section-6 comparison set. kAdaptive is the system under test
/// (interval approximations, adaptive width walk); the other three are the
/// baselines of §4.6/§4.7:
///
///  * kExact — the [WJH97]-style adaptive exact-replication baseline
///    (ExactCachingSystem): every answer exact, every cached write pushed.
///  * kStale — our algorithm specialized to stale-value approximations
///    (AdaptiveStaleBounds over StaleCacheSystem, theta' = Cvr/Cqr).
///  * kDivergence — Divergence Caching [HSW94] (projection-based bound
///    resetting over the same StaleCacheSystem).
///
/// The stale-model runs interpret each read's numeric constraint in update
/// units (a maximum divergence bound) rather than value units — the
/// paper's §4.7 setting, where precision is counted in unseen updates.
enum class PolicyKind {
  kAdaptive,
  kExact,
  kStale,
  kDivergence,
};

const char* PolicyKindName(PolicyKind policy);

/// Deterministic outcome of one scenario × policy run. Every field is a
/// pure function of (script, policy, options) — no wall-clock anywhere —
/// which is what the determinism suite asserts via DebugString().
struct ScenarioMetrics {
  std::string scenario;
  std::string policy;
  int64_t ticks = 0;
  int64_t reads = 0;
  /// Update events implied by the trace (values that actually moved).
  int64_t updates = 0;
  /// MID-RUN checker tallies — asserted while the workload runs, not
  /// post-hoc. All must be 0 on adaptive rows:
  /// result intervals wider than their constraint,
  int64_t violations = 0;
  /// answers (read results and drained subscription notifications) that
  /// failed to contain the exact scripted value at their compute tick,
  int64_t containment_failures = 0;
  /// ticks where the tiered derived-hull invariant A_edge ⊇ A_regional did
  /// not hold (tiered runs only),
  int64_t hull_failures = 0;
  /// per-subscription epoch regressions observed at drain time.
  int64_t order_regressions = 0;
  /// How hard the checkers tried (every individual check counts one).
  int64_t checker_probes = 0;
  // -- cost comparison ---------------------------------------------------
  int64_t value_refreshes = 0;
  int64_t query_refreshes = 0;
  double total_cost = 0.0;
  /// total_cost / ticks, the paper's Ω.
  double cost_rate = 0.0;
  // -- subscription-side tallies (thundering herd only) ------------------
  int64_t subscriptions = 0;
  int64_t notifications = 0;
  int64_t sub_rejected = 0;
  /// Slots whose last drained answer met the slot's then-current bound.
  /// Reported, not gated: the escalation cap legitimately lets a held
  /// answer exceed a freshly tightened bound for a few ticks.
  int64_t bound_met = 0;

  /// Every deterministic field, one per line — the determinism suite's
  /// comparison key.
  std::string DebugString() const;
};

/// Options of the replay harness. The defaults are the committed-bench
/// configuration; tests override shards to widen coverage.
struct ScenarioRunOptions {
  /// Shards of the flat engine. Thundering-herd runs force 1 regardless:
  /// with one shard each tick's dirty ids reach the notifier as ONE batch,
  /// which is what makes the notification stream deterministic.
  int num_shards = 4;
  uint64_t engine_seed = 1234;
  /// Fault injection for the self-checkers: shifts the exact ground truth
  /// every containment check compares against by this amount. 0 (the
  /// default) checks honestly; a value wider than the workload's bounds
  /// forces deterministic containment failures — which is how the
  /// flight-recorder suite proves a failing check produces a dump without
  /// needing a real engine bug on demand.
  double inject_containment_skew = 0.0;
};

/// Replays `script` under `policy` with mid-run self-checking and returns
/// the metrics. Adaptive runs drive the real engines in deterministic
/// lockstep — the sharded engine for flat scenarios, the tiered engine for
/// kHotspotMigration, the subscription subsystem for kThunderingHerd —
/// checking every read against its constraint and the scripted exact
/// value as it happens; baseline runs replay the identical trace and read
/// schedule through the baseline simulators. An invalid script yields
/// zeroed metrics with checker_probes == 0 (a run that never probed can
/// never pass a violations==0 gate by accident).
ScenarioMetrics RunScenario(const ScenarioScript& script, PolicyKind policy,
                            const ScenarioRunOptions& options = {});

}  // namespace apc

#endif  // APC_SCENARIO_SCENARIO_RUNNER_H_
