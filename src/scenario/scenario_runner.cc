#include "scenario/scenario_runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "baseline/divergence_caching.h"
#include "baseline/exact_caching.h"
#include "baseline/stale_system.h"
#include "core/stale_policy.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "obs/flight_recorder.h"
#include "runtime/workload_driver.h"
#include "subscribe/notification_hub.h"

namespace apc {

namespace {

/// Precision constraints are satisfied exactly by construction; the
/// tolerance only absorbs floating-point rounding in interval sums.
bool ViolatesConstraint(const Interval& result, double constraint) {
  double tolerance = 1e-9 * (1.0 + std::fabs(constraint));
  return result.Width() > constraint + tolerance;
}

/// Containment of the scripted exact value, with the same rounding slack:
/// interval endpoints are sums of the very doubles the exact answer sums,
/// but in a different association order.
bool ContainsExact(const Interval& result, double exact) {
  double tolerance = 1e-9 * (1.0 + std::fabs(exact));
  return result.lo() - tolerance <= exact && exact <= result.hi() + tolerance;
}

double ExactValueAt(const Trace& values, int id, int64_t t) {
  return values.hosts[static_cast<size_t>(id)][static_cast<size_t>(t)];
}

/// The exact aggregate the scripted values imply for `query` at tick `t` —
/// the ground truth every mid-run containment check compares against.
double ExactAnswer(const Trace& values, const Query& query, int64_t t) {
  double sum = 0.0;
  double max = -kInfinity;
  double min = kInfinity;
  for (int id : query.source_ids) {
    double v = ExactValueAt(values, id, t);
    sum += v;
    max = std::max(max, v);
    min = std::min(min, v);
  }
  switch (query.kind) {
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kMax:
      return max;
    case AggregateKind::kMin:
      return min;
    case AggregateKind::kAvg:
      return query.source_ids.empty()
                 ? 0.0
                 : sum / static_cast<double>(query.source_ids.size());
  }
  return sum;
}

/// The WAN cost model for kHotspotMigration runs: the flat baselines model
/// a client reading sources across the wide-area link the tiered engine's
/// regional tier refreshes over, so their charges are comparable to the
/// tiered WAN+LAN total. Flat scenarios use the default costs.
RefreshCosts BaselineCosts(const ScenarioScript& script) {
  if (script.kind == ScenarioKind::kHotspotMigration) {
    return RefreshCosts{4.0, 8.0};
  }
  return RefreshCosts{};
}

ScenarioMetrics MakeMetrics(const ScenarioScript& script, PolicyKind policy) {
  ScenarioMetrics metrics;
  metrics.scenario = script.name;
  metrics.policy = PolicyKindName(policy);
  metrics.ticks = script.ticks;
  return metrics;
}

void FinishCosts(ScenarioMetrics& metrics, int64_t value_refreshes,
                 int64_t query_refreshes, double total_cost) {
  metrics.value_refreshes = value_refreshes;
  metrics.query_refreshes = query_refreshes;
  metrics.total_cost = total_cost;
  metrics.cost_rate =
      metrics.ticks > 0 ? total_cost / static_cast<double>(metrics.ticks)
                        : 0.0;
}

/// One flight-recorder dump per run, fired at the FIRST failing check —
/// the scenario-checker trigger documented in obs/flight_recorder.h. The
/// recorder no-ops when unarmed, so honest runs (and the committed bench
/// rows) pay one branch per failure, i.e. nothing.
class FailureDumper {
 public:
  void Note(const char* reason) {
    if (dumped_) return;
    dumped_ = true;
    obs::FlightRecorder::DumpOnFailure(reason);
  }

 private:
  bool dumped_ = false;
};

/// Per-slot state the thundering-herd checker tracks across drains.
struct SlotState {
  int64_t sub_id = -1;
  Query query;
  double delta = 0.0;
  int64_t last_epoch = 0;
  double last_width = kInfinity;
  bool ever_answered = false;
};

/// Adaptive replay on the sharded engine (flash crowd, correlated bursts,
/// thundering herd): deterministic lockstep — TickAll + sequential reads
/// from one thread — with every read checked as it executes and, when the
/// script subscribes, the notification stream drained and checked at
/// per-operation quiescent points.
ScenarioMetrics RunAdaptiveSharded(const ScenarioScript& script,
                                   const ScenarioRunOptions& options) {
  ScenarioMetrics metrics = MakeMetrics(script, PolicyKind::kAdaptive);
  const bool has_subs = script.max_sub_slots > 0;
  const double skew = options.inject_containment_skew;
  FailureDumper dumper;

  EngineConfig config;
  config.system.cache_capacity = static_cast<size_t>(script.num_sources);
  config.num_shards =
      has_subs ? 1
               : std::max(1, std::min(options.num_shards, script.num_sources));
  config.seed = options.engine_seed;
  config.subscription_hub_capacity = std::max<size_t>(
      1024, static_cast<size_t>(script.max_sub_slots) * 8);
  AdaptivePolicyParams policy;
  ShardedEngine engine(
      config,
      BuildTraceSources(script.values, policy, options.engine_seed));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  std::vector<SlotState> slots(static_cast<size_t>(script.max_sub_slots));
  std::unordered_map<int64_t, int> sub_to_slot;
  std::vector<Notification> batch;

  // Drains whatever the notifier has queued and runs the subscription
  // checkers: per-slot epoch monotonicity and containment of each drained
  // answer against the scripted exact value at its compute tick. Caller
  // must be at a quiescent point (WaitQuiescent) for the drain to be
  // deterministic.
  auto drain_and_check = [&]() {
    while (engine.notifications().TryPopBatch(&batch, 256) > 0) {
      for (const Notification& rec : batch) {
        auto it = sub_to_slot.find(rec.sub_id);
        if (it == sub_to_slot.end()) continue;
        SlotState& slot = slots[static_cast<size_t>(it->second)];
        ++metrics.checker_probes;
        if (rec.epoch <= slot.last_epoch) {
          ++metrics.order_regressions;
          dumper.Note("subscription epoch regression");
        }
        slot.last_epoch = rec.epoch;
        ++metrics.checker_probes;
        double exact = ExactAnswer(script.values, slot.query, rec.now) + skew;
        if (!ContainsExact(rec.answer, exact)) {
          ++metrics.containment_failures;
          dumper.Note("notification containment failure");
        }
        slot.last_width = rec.answer.Width();
        slot.ever_answered = true;
      }
    }
  };

  for (int64_t t = 1; t <= script.ticks; ++t) {
    engine.TickAll(t);
    if (has_subs) {
      // Quiesce after every change-producing step so the notifier sees
      // the same batch boundaries every run — the determinism contract.
      engine.subscriptions().WaitQuiescent();
      drain_and_check();
    }
    // Subscription ops run after the tick: Subscribe and Reprecision
    // evaluate their answer synchronously at `t`, so the sources must
    // already hold tick-t values for the containment checker's ground
    // truth (the scripted value at rec.now) to be the value they saw.
    for (const ScenarioSubOp& op : script.sub_ops[static_cast<size_t>(t)]) {
      SlotState& slot = slots[static_cast<size_t>(op.slot)];
      switch (op.kind) {
        case ScenarioSubOp::kSubscribe: {
          int64_t sub_id = engine.Subscribe(op.query, op.delta, t);
          if (sub_id >= 0) {
            slot.sub_id = sub_id;
            slot.query = op.query;
            slot.delta = op.delta;
            sub_to_slot[sub_id] = op.slot;
            ++metrics.subscriptions;
          }
          break;
        }
        case ScenarioSubOp::kReprecision:
          if (slot.sub_id >= 0 &&
              engine.Reprecision(slot.sub_id, op.delta, t)) {
            slot.delta = op.delta;
          }
          break;
        case ScenarioSubOp::kUnsubscribe:
          if (slot.sub_id >= 0) engine.Unsubscribe(slot.sub_id);
          break;
      }
      // Quiesce after EACH op, not just the batch: an op's escalation
      // publishes dirty ids, and letting the notifier's evaluation of
      // them race the NEXT op's state mutations makes the ship/suppress
      // decision (and so the notification count) timing-dependent.
      engine.subscriptions().WaitQuiescent();
    }
    if (has_subs) {
      engine.subscriptions().WaitQuiescent();
      drain_and_check();
    }
    for (const ScenarioReadOp& op : script.reads[static_cast<size_t>(t)]) {
      Interval result = engine.ExecuteQuery(op.query, t);
      ++metrics.reads;
      ++metrics.checker_probes;
      if (ViolatesConstraint(result, op.query.constraint)) {
        ++metrics.violations;
        dumper.Note("read constraint violation");
      }
      ++metrics.checker_probes;
      if (!ContainsExact(result,
                         ExactAnswer(script.values, op.query, t) + skew)) {
        ++metrics.containment_failures;
        dumper.Note("read containment failure");
      }
      if (has_subs) {
        engine.subscriptions().WaitQuiescent();
        drain_and_check();
      }
    }
    metrics.updates +=
        static_cast<int64_t>(UpdatedIds(script.values, t).size());
  }
  if (has_subs) {
    engine.subscriptions().WaitQuiescent();
    drain_and_check();
    for (const SlotState& slot : slots) {
      if (slot.ever_answered &&
          slot.last_width <= slot.delta + 1e-9 * (1.0 + slot.delta)) {
        ++metrics.bound_met;
      }
    }
    metrics.notifications = engine.subscriptions().counters().notifications.load(
        std::memory_order_relaxed);
    metrics.sub_rejected = engine.subscriptions().counters().rejected.load(
        std::memory_order_relaxed);
  }
  engine.EndMeasurement(script.ticks + 1);
  EngineCosts costs = engine.TotalCosts();
  FinishCosts(metrics, costs.value_refreshes, costs.query_refreshes,
              costs.total_cost);
  return metrics;
}

/// Adaptive replay on the tiered engine (hotspot migration): edge-targeted
/// point reads with the derived-hull invariant probed every tick, mid-run.
ScenarioMetrics RunAdaptiveTiered(const ScenarioScript& script,
                                  const ScenarioRunOptions& options) {
  ScenarioMetrics metrics = MakeMetrics(script, PolicyKind::kAdaptive);
  const double skew = options.inject_containment_skew;
  FailureDumper dumper;
  TieredConfig config;
  config.num_edges = script.num_edges;
  config.num_shards = std::max(1, std::min(2, script.num_sources));
  config.seed = options.engine_seed;
  TieredEngine engine(config, BuildTraceStreams(script.values));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  for (int64_t t = 1; t <= script.ticks; ++t) {
    engine.TickAll(t);
    for (const ScenarioReadOp& op : script.reads[static_cast<size_t>(t)]) {
      int id = op.query.source_ids.front();
      Interval result = engine.Read(op.edge, id, op.query.constraint, t);
      ++metrics.reads;
      ++metrics.checker_probes;
      if (ViolatesConstraint(result, op.query.constraint)) {
        ++metrics.violations;
        dumper.Note("tiered read constraint violation");
      }
      ++metrics.checker_probes;
      if (!ContainsExact(result, ExactValueAt(script.values, id, t) + skew)) {
        ++metrics.containment_failures;
        dumper.Note("tiered read containment failure");
      }
    }
    ++metrics.checker_probes;
    if (!engine.DerivedInvariantHolds(t)) {
      ++metrics.hull_failures;
      dumper.Note("derived hull invariant failure");
    }
    metrics.updates +=
        static_cast<int64_t>(UpdatedIds(script.values, t).size());
  }
  engine.EndMeasurement(script.ticks + 1);
  EngineCosts wan = engine.WanCosts();
  EngineCosts lan = engine.LanCosts();
  FinishCosts(metrics, wan.value_refreshes + lan.value_refreshes,
              wan.query_refreshes + lan.query_refreshes,
              wan.total_cost + lan.total_cost);
  return metrics;
}

/// The standing-query schedule lowered for baselines that have no push
/// surface: each active subscription becomes one poll per tick (the
/// polling equivalent the subscription bench measures savings against).
struct BaselinePolls {
  std::vector<Query> active;
  std::vector<double> delta;
};

void ApplySubOpsToPolls(const ScenarioScript& script, int64_t t,
                        std::vector<SlotState>& slots) {
  for (const ScenarioSubOp& op : script.sub_ops[static_cast<size_t>(t)]) {
    SlotState& slot = slots[static_cast<size_t>(op.slot)];
    switch (op.kind) {
      case ScenarioSubOp::kSubscribe:
        slot.sub_id = op.slot;
        slot.query = op.query;
        slot.delta = op.delta;
        break;
      case ScenarioSubOp::kReprecision:
        slot.delta = op.delta;
        break;
      case ScenarioSubOp::kUnsubscribe:
        slot.sub_id = -1;
        break;
    }
  }
}

/// The [WJH97] exact-replication baseline: replays the identical trace
/// (writes only for values that moved) and read schedule; every answer is
/// exact, so the precision checks trivially hold and the row's content is
/// the cost of that exactness.
ScenarioMetrics RunExactBaseline(const ScenarioScript& script) {
  ScenarioMetrics metrics = MakeMetrics(script, PolicyKind::kExact);
  ExactCachingParams params;
  params.costs = BaselineCosts(script);
  params.cache_capacity = static_cast<size_t>(script.num_sources);
  ExactCachingSystem system(params, BuildTraceStreams(script.values));
  system.costs().BeginMeasurement(0);
  std::vector<SlotState> slots(static_cast<size_t>(script.max_sub_slots));

  for (int64_t t = 1; t <= script.ticks; ++t) {
    ApplySubOpsToPolls(script, t, slots);
    system.TickTrace(t);
    for (const ScenarioReadOp& op : script.reads[static_cast<size_t>(t)]) {
      double answer = system.ExecuteQuery(op.query, t);
      ++metrics.reads;
      ++metrics.checker_probes;
      if (!ContainsExact(Interval::Exact(answer),
                         ExactAnswer(script.values, op.query, t))) {
        ++metrics.containment_failures;
      }
    }
    for (const SlotState& slot : slots) {
      if (slot.sub_id < 0) continue;
      system.ExecuteQuery(slot.query, t);
      ++metrics.reads;
      ++metrics.subscriptions;
    }
    metrics.updates +=
        static_cast<int64_t>(UpdatedIds(script.values, t).size());
  }
  system.costs().EndMeasurement(script.ticks + 1);
  FinishCosts(metrics, system.costs().value_refreshes(),
              system.costs().query_refreshes(), system.costs().total_cost());
  return metrics;
}

/// The stale-value baselines (our stale-adapted algorithm, or Divergence
/// Caching): the trace's update schedule drives explicit per-id update
/// events; each read's constraint is a maximum divergence bound in update
/// units. The mid-run check is the stale model's precision guarantee —
/// after a read, no read id may lag more updates than the constraint
/// allowed (the system refreshes exactly when the promised bound exceeds
/// it, so pending_updates ≤ constraint must hold at serve time).
ScenarioMetrics RunStaleBaseline(const ScenarioScript& script,
                                 PolicyKind policy, uint64_t seed) {
  ScenarioMetrics metrics = MakeMetrics(script, policy);
  StaleSystemConfig config;
  config.costs = BaselineCosts(script);
  config.num_sources = script.num_sources;
  std::unique_ptr<StaleBoundPolicy> bounds;
  if (policy == PolicyKind::kDivergence) {
    DivergenceCachingParams params;
    params.costs = config.costs;
    params.initial_bound = 2.0;
    bounds = std::make_unique<DivergenceCachingBounds>(params,
                                                       script.num_sources);
  } else {
    StalePolicyParams params;
    params.cvr = config.costs.cvr;
    params.cqr = config.costs.cqr;
    params.delta0 = 1.0;
    params.initial_bound = 2.0;
    bounds = std::make_unique<AdaptiveStaleBounds>(
        params.ToAdaptiveParams(), script.num_sources, seed ^ 0x57a1e);
  }
  StaleCacheSystem system(config, std::move(bounds), seed);
  system.costs().BeginMeasurement(0);
  std::vector<SlotState> slots(static_cast<size_t>(script.max_sub_slots));

  auto checked_read = [&](const std::vector<int>& ids, double constraint,
                          int64_t now) {
    system.ExecuteRead(ids, constraint, now);
    ++metrics.reads;
    for (int id : ids) {
      ++metrics.checker_probes;
      if (static_cast<double>(system.pending_updates(id)) >
          constraint + 1e-9 * (1.0 + constraint)) {
        ++metrics.violations;
      }
    }
  };

  for (int64_t t = 1; t <= script.ticks; ++t) {
    ApplySubOpsToPolls(script, t, slots);
    std::vector<int> updated = UpdatedIds(script.values, t);
    system.ApplyUpdates(updated, t);
    metrics.updates += static_cast<int64_t>(updated.size());
    for (const ScenarioReadOp& op : script.reads[static_cast<size_t>(t)]) {
      checked_read(op.query.source_ids, op.query.constraint, t);
    }
    for (const SlotState& slot : slots) {
      if (slot.sub_id < 0) continue;
      checked_read(slot.query.source_ids, slot.delta, t);
      ++metrics.subscriptions;
    }
  }
  system.costs().EndMeasurement(script.ticks + 1);
  FinishCosts(metrics, system.costs().value_refreshes(),
              system.costs().query_refreshes(), system.costs().total_cost());
  return metrics;
}

}  // namespace

const char* PolicyKindName(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kAdaptive:
      return "adaptive";
    case PolicyKind::kExact:
      return "exact";
    case PolicyKind::kStale:
      return "stale";
    case PolicyKind::kDivergence:
      return "divergence";
  }
  return "unknown";
}

std::string ScenarioMetrics::DebugString() const {
  std::ostringstream out;
  out.precision(17);
  out << "scenario=" << scenario << "\npolicy=" << policy
      << "\nticks=" << ticks << "\nreads=" << reads
      << "\nupdates=" << updates << "\nviolations=" << violations
      << "\ncontainment_failures=" << containment_failures
      << "\nhull_failures=" << hull_failures
      << "\norder_regressions=" << order_regressions
      << "\nchecker_probes=" << checker_probes
      << "\nvalue_refreshes=" << value_refreshes
      << "\nquery_refreshes=" << query_refreshes
      << "\ntotal_cost=" << total_cost << "\ncost_rate=" << cost_rate
      << "\nsubscriptions=" << subscriptions
      << "\nnotifications=" << notifications
      << "\nsub_rejected=" << sub_rejected << "\nbound_met=" << bound_met
      << "\n";
  return out.str();
}

ScenarioMetrics RunScenario(const ScenarioScript& script, PolicyKind policy,
                            const ScenarioRunOptions& options) {
  if (!script.IsValid()) return ScenarioMetrics{};
  switch (policy) {
    case PolicyKind::kAdaptive:
      return script.kind == ScenarioKind::kHotspotMigration
                 ? RunAdaptiveTiered(script, options)
                 : RunAdaptiveSharded(script, options);
    case PolicyKind::kExact:
      return RunExactBaseline(script);
    case PolicyKind::kStale:
    case PolicyKind::kDivergence:
      return RunStaleBaseline(script, policy, options.engine_seed);
  }
  return ScenarioMetrics{};
}

}  // namespace apc
