#ifndef APC_RUNTIME_WORKLOAD_DRIVER_H_
#define APC_RUNTIME_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adaptive_policy.h"
#include "data/random_walk.h"
#include "data/traffic_trace.h"
#include "query/query_gen.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "stats/histogram.h"
#include "stats/stats.h"

namespace apc {

/// One regime of a phase-shifting workload. Each query thread issues
/// `queries_per_thread` requests in the phase before moving to the next;
/// the updater thread follows the globally slowest thread's phase, so the
/// update:query ratio flips for the whole system when the run crosses a
/// phase boundary. Dynamic-precision policies are exactly the components
/// such regime changes stress: the per-value widths tuned during a
/// read-heavy phase are wrong for the write-heavy phase that follows, and
/// the adaptive δ must re-converge.
struct WorkloadPhase {
  /// Queries each thread issues in this phase (> 0).
  int64_t queries_per_thread = 0;
  /// Mix of single-source point reads (width bound = the query constraint)
  /// interleaved into each thread's stream; the rest are aggregates.
  double point_read_fraction = 0.0;
  /// Zipf exponent for source selection during the phase (0 = uniform).
  double zipf_s = 0.0;
  /// Tick-all events pushed per updater burst while this phase is active;
  /// 0 pauses updates for the phase (a pure-read regime).
  int update_burst = 8;

  bool IsValid() const {
    return queries_per_thread > 0 && point_read_fraction >= 0.0 &&
           point_read_fraction <= 1.0 && zipf_s >= 0.0 && update_burst >= 0;
  }
};

/// Configuration of the closed-loop concurrent load generator. Each query
/// thread owns independent QueryGenerators (and thus independent Rng
/// streams derived from `seed`), issues its phases' precision-bounded
/// queries back-to-back, and validates that every result interval
/// satisfies its constraint. An optional updater thread streams tick-all
/// events through the engine's UpdateBus while queries run, so
/// value-initiated refreshes race with query-initiated ones the way a live
/// deployment's would.
///
/// When `phases` is empty the run is a single phase assembled from the
/// legacy scalar knobs (`queries_per_thread`, `point_read_fraction`,
/// `update_burst`, `workload.zipf_s`), which keeps old configs working
/// unchanged.
struct DriverConfig {
  int num_threads = 2;
  int64_t queries_per_thread = 1000;
  QueryWorkloadParams workload;
  /// Streams source updates through the UpdateBus during the run. The
  /// driver starts and stops the engine's pump thread itself.
  bool run_updates = true;
  /// Tick-all events pushed per updater burst (bounded by bus capacity).
  int update_burst = 8;
  /// Mix of single-source point reads (width bound = the query constraint)
  /// interleaved into each thread's stream; the rest are aggregates.
  double point_read_fraction = 0.0;
  /// Phase schedule; empty = one phase from the scalar knobs above.
  std::vector<WorkloadPhase> phases;
  uint64_t seed = 1;

  bool IsValid() const {
    if (num_threads <= 0 || point_read_fraction < 0.0 ||
        point_read_fraction > 1.0 || !workload.IsValid()) {
      return false;
    }
    if (phases.empty()) {
      return queries_per_thread > 0 && update_burst > 0;
    }
    for (const WorkloadPhase& phase : phases) {
      if (!phase.IsValid()) return false;
    }
    return true;
  }
};

/// Outcome of a driver run. Latencies are per-query service times in
/// microseconds, aggregated across threads from per-thread log-spaced
/// histograms; `violations` counts result intervals wider than their
/// constraint (must be 0 — the runtime's precision guarantee).
struct DriverReport {
  int64_t queries = 0;
  int64_t violations = 0;
  /// Malformed-input tallies snapshotted from the engine's RuntimeCounters
  /// at the end of the run: update events naming ids no shard owns, and
  /// query/point-read ids dropped from requests. Both are 0 for well-formed
  /// workloads; the bench JSON persists them so malformed-input rates land
  /// in the committed trajectory.
  int64_t rejected_updates = 0;
  int64_t rejected_query_ids = 0;
  /// Logical ticks pushed through the update bus — only events the bus
  /// actually accepted (0 when updates are off), so the tick count and the
  /// EndMeasurement clock never include pushes rejected at shutdown.
  int64_t ticks = 0;
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;
  EngineCosts costs;
};

/// Geo-skewed tiered workload: every query thread has a home edge and
/// draws precision-bounded point reads Zipf-skewed over a per-edge rotated
/// id space, so each edge has its own hotspot (edge e's hottest id is
/// e·num_sources/num_edges). Phases rotate every thread's home edge by one
/// (phase p: thread t reads edge (t + p) % num_edges), migrating each
/// hotspot to a different edge mid-run — the per-(edge, value) derived
/// widths tuned for one affinity are wrong for the next, and the adaptive
/// δ policies must re-converge, the regime shift dynamic-precision systems
/// are sensitive to.
struct TieredWorkloadConfig {
  int num_threads = 2;
  /// Total queries each thread issues across all phases (> 0).
  int64_t queries_per_thread = 1000;
  /// Id space; reads target ids 0..num_sources-1, all of which the engine
  /// must own — RunTieredWorkload refuses to run (zero report) otherwise,
  /// so a config/engine mismatch can never masquerade as precision
  /// violations.
  int num_sources = 50;
  /// Zipf exponent of the per-edge hotspot (0 = uniform, no hotspot).
  double zipf_s = 1.1;
  /// Distribution of read precision constraints.
  ConstraintParams constraints{20.0, 1.0};
  /// Streams tick-all events through the engine's UpdateBus during the
  /// run; `update_burst` events per updater burst (0 = no updates).
  bool run_updates = true;
  int update_burst = 8;
  /// Number of edge-affinity phases; each thread splits its query budget
  /// evenly across them (remainder to the last phase).
  int num_phases = 1;
  uint64_t seed = 1;

  bool IsValid() const {
    return num_threads > 0 && queries_per_thread > 0 && num_sources > 0 &&
           zipf_s >= 0.0 && constraints.IsValid() && update_burst >= 0 &&
           num_phases > 0 && num_phases <= queries_per_thread;
  }
};

/// Outcome of a tiered driver run: latency/throughput plus where reads
/// were served (edge / regional / source) and the per-link costs.
struct TieredDriverReport {
  int64_t queries = 0;
  /// Result intervals wider than their constraint (must be 0).
  int64_t violations = 0;
  int64_t ticks = 0;
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;
  /// Read-path outcome tallies from TieredCounters.
  int64_t edge_hits = 0;
  int64_t regional_hits = 0;
  int64_t source_pulls = 0;
  int64_t derived_pushes = 0;
  int64_t lost_wan_pushes = 0;
  int64_t lost_lan_pushes = 0;
  /// Per-link cost aggregates over the measured period.
  EngineCosts wan;
  EngineCosts lan;

  double TotalCostRate() const { return wan.CostRate() + lan.CostRate(); }
};

/// Configuration of the subscription workload: a population of standing
/// precision-bounded queries (subscriber count × churn × δ_sub
/// distribution) registered against a ShardedEngine the driver builds in
/// place, with subscriber threads draining the NotificationHub while the
/// updater streams ticks through the UpdateBus — the push-side mirror of
/// the polling workloads above.
struct SubscriptionWorkloadConfig {
  /// Engine shape; `system.cache_capacity` etc. apply as usual. The driver
  /// builds the engine itself (it must also build the seed-identical twin
  /// for the polling-equivalent replay).
  EngineConfig engine;
  int num_sources = 64;
  RandomWalkParams walk;
  AdaptivePolicyParams policy;
  /// Standing queries registered before measurement begins.
  int num_subscribers = 64;
  /// Threads draining the hub (the "clients").
  int subscriber_threads = 2;
  /// Fraction of single-source subscriptions; the rest are group_size-id
  /// aggregates rotating through SUM/MAX/MIN/AVG.
  double point_fraction = 1.0;
  int group_size = 8;
  /// Distribution of per-subscription bounds δ_sub.
  ConstraintParams deltas{20.0, 1.0};
  /// Update ticks streamed through the bus during measurement.
  int64_t ticks = 2000;
  int update_burst = 8;
  /// Subscription churn: unsubscribe-a-random-standing-query-and-register-
  /// a-fresh-one operations performed by a control thread during the run.
  int churn_ops = 0;
  /// Live Reprecision operations (random subscription, fresh δ_sub draw)
  /// interleaved with the churn.
  int reprecision_ops = 0;
  /// Runs the lockstep polling-equivalent replay and fills the polling_*
  /// report fields — the savings claim is computed here, in one place.
  bool run_polling_equivalent = true;
  /// Runs the concurrent no-missed-violation checker during the run.
  bool run_violation_checker = true;
  uint64_t seed = 1;

  bool IsValid() const {
    return engine.IsValid() && num_sources > 0 && num_subscribers > 0 &&
           subscriber_threads > 0 && point_fraction >= 0.0 &&
           point_fraction <= 1.0 && group_size > 0 &&
           group_size <= num_sources && deltas.IsValid() && ticks > 0 &&
           update_burst > 0 && churn_ops >= 0 && reprecision_ops >= 0;
  }
};

/// Outcome of a subscription driver run. The polling_* fields hold the
/// measured polling-equivalent workload (same standing set, one poll per
/// subscription per tick against a seed-identical fresh engine), so every
/// bench's savings claim divides numbers computed by this one function.
/// Client-link charging uses the engine's own cost model: one Cvr per
/// pushed notification, one Cqr per poll round trip.
struct SubscriptionDriverReport {
  int64_t subscriptions = 0;
  /// Notifications queued during measurement (registration answers are
  /// pre-measurement and excluded).
  int64_t notifications = 0;
  /// Notifications actually drained by subscriber threads (whole run).
  int64_t delivered = 0;
  int64_t escalations = 0;
  int64_t evaluations = 0;
  int64_t suppressed = 0;
  int64_t churn_ops = 0;
  int64_t reprecision_ops = 0;
  /// Concurrent no-missed-violation probes and failures (must be 0): a
  /// probe fails when a subscriber-held answer no longer contains the true
  /// value and no fresher notification is queued or in flight.
  int64_t checker_probes = 0;
  int64_t missed_violations = 0;
  /// Per-subscription epoch regressions observed at drain time (only
  /// checkable — and guaranteed 0 — with one subscriber thread).
  int64_t order_regressions = 0;
  int64_t ticks = 0;
  double wall_seconds = 0.0;
  double notifications_per_second = 0.0;
  /// Delivery lag in logical ticks (drain-time clock − answer compute
  /// tick) over change-driven notifications. The mean is exact; the
  /// percentiles come from the engine's metrics registry histogram
  /// ("subs.delivery_lag_ticks", fed by the subscriber threads through
  /// SubscriptionManager::RecordDeliveryLag) and read 0 when nothing was
  /// delivered.
  double delivery_lag_ticks_mean = 0.0;
  double delivery_lag_ticks_p99 = 0.0;
  double delivery_lag_ticks_p50 = 0.0;
  double delivery_lag_ticks_p90 = 0.0;
  /// Engine-side Cvr/Cqr over the measured period (subscription run).
  EngineCosts costs;
  /// notifications × Cvr: the client-link push traffic.
  double client_push_cost = 0.0;
  /// costs.total_cost + client_push_cost.
  double subscription_total_cost = 0.0;
  // -- the measured polling equivalent (0 when disabled) ----------------
  int64_t polls = 0;
  EngineCosts polling_costs;
  /// polls × Cqr: the client-link poll traffic.
  double polling_client_cost = 0.0;
  /// polling_costs.total_cost + polling_client_cost — the number the
  /// subscription_total_cost savings claim is measured against.
  double polling_equivalent_cost = 0.0;
};

/// Builds n random-walk sources with per-source forked policy/stream seeds
/// — the standard source population for runtime benches and tests.
std::vector<std::unique_ptr<Source>> BuildRandomWalkSources(
    int n, const RandomWalkParams& walk, const AdaptivePolicyParams& policy,
    uint64_t seed);

/// Builds n bare random-walk update streams with per-stream seeds forked
/// from `seed` — the source population for TieredEngine and
/// HierarchicalSystem (which own the policies themselves). Deterministic:
/// two calls with equal arguments produce identical stream sets, which is
/// what the lockstep parity harnesses rely on.
std::vector<std::unique_ptr<UpdateStream>> BuildRandomWalkStreams(
    int n, const RandomWalkParams& walk, uint64_t seed);

/// Builds one SeriesStream-backed source per trace host: source id h plays
/// back trace.hosts[h] (value at time t = hosts[h][t]; the last value
/// repeats past the end). The per-source policy seeds are forked from
/// `seed` in exactly the order BuildRandomWalkSources forks them — the
/// stream-seed slot is drawn and discarded — so a trace recorded from a
/// BuildRandomWalkSources population replays against policies whose
/// probabilistic grow/shrink decisions are bit-for-bit the original run's.
std::vector<std::unique_ptr<Source>> BuildTraceSources(
    const Trace& trace, const AdaptivePolicyParams& policy, uint64_t seed);

/// Builds one bare SeriesStream per trace host, for the engines that own
/// their precision policies (TieredEngine, HierarchicalSystem, baselines).
std::vector<std::unique_ptr<UpdateStream>> BuildTraceStreams(
    const Trace& trace);

/// Runs the closed-loop workload against `engine`: populates the cache,
/// begins measurement, fans out query threads (plus the updater when
/// enabled), joins everything, ends measurement, and returns the merged
/// report. With `run_updates` set the engine's UpdateBus is closed when
/// the run ends, so each engine supports one updating run. An invalid
/// config yields the zero report without touching the engine.
DriverReport RunWorkload(ShardedEngine& engine, const DriverConfig& config);

/// Runs the geo-skewed tiered workload against `engine`: populates both
/// tiers, begins measurement, fans out query threads issuing
/// precision-bounded edge reads (plus the updater when enabled), joins
/// everything, ends measurement, and returns the merged report. With
/// `run_updates` set the engine's UpdateBus is closed when the run ends,
/// so each engine supports one updating run. An invalid config yields the
/// zero report without touching the engine.
TieredDriverReport RunTieredWorkload(TieredEngine& engine,
                                     const TieredWorkloadConfig& config);

/// Runs the subscription workload: builds the engine, registers the
/// standing-query population, fans out subscriber/updater/churn/checker
/// threads, joins everything, then (when enabled) replays the measured
/// polling equivalent against a seed-identical fresh engine. An invalid
/// config yields the zero report.
SubscriptionDriverReport RunSubscriptionWorkload(
    const SubscriptionWorkloadConfig& config);

}  // namespace apc

#endif  // APC_RUNTIME_WORKLOAD_DRIVER_H_
