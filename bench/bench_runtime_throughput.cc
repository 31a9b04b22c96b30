// Scaling bench for the concurrent serving runtime (src/runtime/) — and
// the writer of BENCH_runtime.json, the repo's persisted perf trajectory.
//
// Part 1 re-validates the runtime's equivalence claim: a single-shard
// engine driven in lockstep from one thread must reproduce the sequential
// CacheSystem's cost accounting exactly — same value- and query-initiated
// refresh counts, same total cost. Since the shared-core refactor both
// sides drive the same ProtocolTable, so this re-checks the wiring rather
// than two hand-maintained twins.
//
// Part 2 sweeps the read-mostly serving hot path (point_read_fraction
// 0.95) across worker threads × shards × Zipf skew. Snapshot reads
// validate an optimistic per-entry versioned read and take no shard lock
// at all (rows keep "mode": "seqlock" so they compare with older
// trajectories). The updater streams tick-all events through the
// UpdateBus during every run, so readers race a cycling writer. Every
// returned interval is checked against its precision constraint;
// violations must be 0.
//
// Part 3 runs a phase-shifting scenario: a skewed read-heavy regime, then
// a write-heavy uniform regime, then a pure-read regime — the update:query
// ratio flips mid-run, exercising the adaptive δ policies under regime
// change.
//
// Part 4 runs the update path under an update-heavy driver load and
// snapshots its bus.drain_batch_size histogram (events applied per
// shard-lock hold) from the obs registry into the committed trajectory.
//
// Usage: bench_runtime_throughput [queries_per_thread] [num_sources] [out.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "cache/system.h"
#include "core/adaptive_policy.h"
#include "obs/metrics.h"
#include "query/query_gen.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

namespace {

using namespace apc;

constexpr uint64_t kSeed = 77;
constexpr double kPointReadFraction = 0.95;

QueryWorkloadParams Workload(int num_sources) {
  QueryWorkloadParams params;
  params.num_sources = num_sources;
  params.group_size = 10;
  params.max_fraction = 0.25;  // mixed SUM / MAX / MIN / AVG workload
  params.min_fraction = 0.25;
  params.avg_fraction = 0.25;
  params.constraints.avg = 20.0;
  params.constraints.rho = 1.0;
  return params;
}

std::vector<std::unique_ptr<Source>> Sources(int n) {
  return BuildRandomWalkSources(n, RandomWalkParams{},
                                AdaptivePolicyParams{}, kSeed);
}

bool DeterminismCheck(int num_sources) {
  constexpr int64_t kTicks = 500;
  SystemConfig sys_config;
  sys_config.cache_capacity = static_cast<size_t>(num_sources) * 3 / 4;

  CacheSystem sequential(sys_config, Sources(num_sources));
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  ShardedEngine engine(engine_config, Sources(num_sources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryGenerator gen_a(Workload(num_sources), kSeed ^ 0x7e57);
  QueryGenerator gen_b(Workload(num_sources), kSeed ^ 0x7e57);
  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    sequential.ExecuteQuery(gen_a.Next(), t);
    engine.ExecuteQuery(gen_b.Next(), t);
  }
  sequential.costs().EndMeasurement(kTicks);
  engine.EndMeasurement(kTicks);

  EngineCosts engine_costs = engine.TotalCosts();
  bool match =
      engine_costs.value_refreshes == sequential.costs().value_refreshes() &&
      engine_costs.query_refreshes == sequential.costs().query_refreshes() &&
      engine_costs.total_cost == sequential.costs().total_cost();
  std::printf("  engine vs CacheSystem: vr=%lld qr=%lld cost=%s  ->  %s\n",
              static_cast<long long>(engine_costs.value_refreshes),
              static_cast<long long>(engine_costs.query_refreshes),
              bench::Num(engine_costs.total_cost).c_str(),
              match ? "MATCH" : "MISMATCH");
  return match;
}

DriverReport RunOne(double zipf_s, int shards, int threads,
                    int64_t queries_per_thread, int num_sources,
                    const std::vector<WorkloadPhase>& phases,
                    int64_t* queries_executed) {
  EngineConfig config;
  config.num_shards = shards;
  config.system.cache_capacity = static_cast<size_t>(num_sources) * 3 / 4;
  config.seed = kSeed;
  ShardedEngine engine(config, Sources(num_sources));

  DriverConfig driver;
  driver.num_threads = threads;
  driver.queries_per_thread = queries_per_thread;
  driver.workload = Workload(num_sources);
  driver.workload.zipf_s = zipf_s;
  driver.run_updates = true;
  driver.point_read_fraction = kPointReadFraction;
  driver.phases = phases;
  // Seeded by the cell alone: every repeat of a cell faces the identical
  // query/constraint streams.
  driver.seed = kSeed + static_cast<uint64_t>(shards * 1000 + threads * 10);
  DriverReport report = RunWorkload(engine, driver);
  // Progress is judged by the engine's own atomic counter, not by the
  // driver's derived tally: every issued query must have reached the engine.
  *queries_executed = engine.counters().queries_executed.load();
  return report;
}

/// Repeats a sweep point and keeps the qps-median run: single runs are
/// scheduler-noisy (especially on few-core hosts), and the committed
/// trajectory should track the code, not the interleaving lottery.
/// Violations accumulate across ALL repeats — the precision guarantee has
/// no noise to hide behind.
DriverReport RunMedian(int repeats, double zipf_s, int shards, int threads,
                       int64_t queries_per_thread, int num_sources,
                       int64_t* queries_executed, int64_t* all_violations) {
  std::vector<DriverReport> reports;
  std::vector<int64_t> executed(static_cast<size_t>(repeats), 0);
  for (int r = 0; r < repeats; ++r) {
    reports.push_back(RunOne(zipf_s, shards, threads, queries_per_thread,
                             num_sources, {},
                             &executed[static_cast<size_t>(r)]));
    *all_violations += reports.back().violations;
  }
  size_t median = 0;
  std::vector<size_t> order(reports.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return reports[a].queries_per_second < reports[b].queries_per_second;
  });
  median = order[order.size() / 2];
  *queries_executed = executed[median];
  return reports[median];
}

}  // namespace

int main(int argc, char** argv) {
  int64_t queries_per_thread = argc > 1 ? std::atoll(argv[1]) : 20000;
  int num_sources = argc > 2 ? std::atoi(argv[2]) : 256;
  std::string out_path = argc > 3 ? argv[3] : "BENCH_runtime.json";
  if (queries_per_thread <= 0 || !Workload(num_sources).IsValid()) {
    std::fprintf(stderr,
                 "usage: %s [queries_per_thread] [num_sources] [out.json]\n"
                 "  queries_per_thread >= 1, num_sources >= 10 (group size)\n",
                 argv[0]);
    return 2;
  }

  bench::BenchReport report("runtime_throughput");
  report.Meta()
      .Int("queries_per_thread", queries_per_thread)
      .Int("num_sources", num_sources)
      .Num("point_read_fraction", kPointReadFraction)
      .Int("group_size", 10)
      .Int("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("workload", "mixed SUM/MAX/MIN/AVG + point reads, updates via bus")
      .Str("units", "latency us, qps queries/s, cost_rate cost/tick");

  bench::Banner("RUNTIME-1",
                "single shard + single thread reproduces CacheSystem");
  bool deterministic = DeterminismCheck(num_sources);

  bench::Banner("RUNTIME-2",
                "read-mostly hot path: threads x shards x skew");
  bench::Note("point_read_fraction 0.95, updates streaming through the bus;");
  bench::Note("snapshot reads are optimistic per-entry versioned reads, no "
              "shard lock");
  std::printf("\n  %5s %7s %8s %12s %9s %9s %9s %10s %7s %11s\n", "zipf",
              "shards", "threads", "queries/s", "p50 us", "p95 us", "p99 us",
              "cost/tick", "ticks", "violations");

  int64_t total_violations = 0;
  bool concurrent_progress = false;
  // The scaling gate's inputs: 8 shards, uniform ids, 1 and 8 threads.
  double qps_1t = 0.0;
  double qps_8t = 0.0;
  for (double zipf_s : {0.0, 1.1}) {
    for (int shards : {1, 8}) {
      for (int threads : {1, 4, 8}) {
        int64_t executed = 0;
        const DriverReport r =
            RunMedian(/*repeats=*/7, zipf_s, shards, threads,
                      queries_per_thread, num_sources, &executed,
                      &total_violations);
        if (threads > 1 &&
            executed ==
                static_cast<int64_t>(threads) * queries_per_thread) {
          concurrent_progress = true;
        }
        if (shards == 8 && zipf_s == 0.0) {
          if (threads == 1) qps_1t = r.queries_per_second;
          if (threads == 8) qps_8t = r.queries_per_second;
        }
        std::printf(
            "  %5.1f %7d %8d %12.0f %9.1f %9.1f %9.1f %10.3f %7lld %11lld\n",
            zipf_s, shards, threads, r.queries_per_second, r.latency_p50_us,
            r.latency_p95_us, r.latency_p99_us, r.costs.CostRate(),
            static_cast<long long>(r.ticks),
            static_cast<long long>(r.violations));
        report.AddRun()
            .Str("scenario", "steady")
            .Str("mode", "seqlock")
            .Num("zipf_s", zipf_s)
            .Int("shards", shards)
            .Int("threads", threads)
            .Num("point_read_fraction", kPointReadFraction)
            .Num("qps", r.queries_per_second)
            .Num("p50_us", r.latency_p50_us)
            .Num("p95_us", r.latency_p95_us)
            .Num("p99_us", r.latency_p99_us)
            .Num("cost_rate", r.costs.CostRate())
            .Int("queries", r.queries)
            .Int("ticks", r.ticks)
            .Int("value_refreshes", r.costs.value_refreshes)
            .Int("query_refreshes", r.costs.query_refreshes)
            .Int("rejected_updates", r.rejected_updates)
            .Int("rejected_query_ids", r.rejected_query_ids)
            .Int("violations", r.violations);
      }
    }
  }

  bench::Banner("RUNTIME-3", "phase-shifting workload (regime change)");
  bench::Note("phase 1: skewed read-heavy | phase 2: uniform write-heavy | "
              "phase 3: pure reads, updates paused");
  {
    std::vector<WorkloadPhase> phases(3);
    phases[0].queries_per_thread = queries_per_thread;
    phases[0].point_read_fraction = 0.95;
    phases[0].zipf_s = 1.1;
    phases[0].update_burst = 4;
    phases[1].queries_per_thread = queries_per_thread;
    phases[1].point_read_fraction = 0.2;
    phases[1].zipf_s = 0.0;
    phases[1].update_burst = 64;
    phases[2].queries_per_thread = queries_per_thread;
    phases[2].point_read_fraction = 1.0;
    phases[2].zipf_s = 1.1;
    phases[2].update_burst = 0;
    int64_t executed = 0;
    DriverReport r = RunOne(0.0, 8, 4, queries_per_thread, num_sources,
                            phases, &executed);
    total_violations += r.violations;
    std::printf("  %lld queries in %.2fs -> %.0f q/s, p99 %.1f us, "
                "%lld ticks, %lld violations\n",
                static_cast<long long>(r.queries), r.wall_seconds,
                r.queries_per_second, r.latency_p99_us,
                static_cast<long long>(r.ticks),
                static_cast<long long>(r.violations));
    report.AddRun()
        .Str("scenario", "phase_shift")
        .Str("mode", "seqlock")
        .Str("phases",
             "read95/zipf1.1/burst4 -> read20/uniform/burst64 -> "
             "read100/zipf1.1/paused")
        .Int("shards", 8)
        .Int("threads", 4)
        .Num("qps", r.queries_per_second)
        .Num("p50_us", r.latency_p50_us)
        .Num("p95_us", r.latency_p95_us)
        .Num("p99_us", r.latency_p99_us)
        .Num("cost_rate", r.costs.CostRate())
        .Int("queries", r.queries)
        .Int("ticks", r.ticks)
        .Int("rejected_updates", r.rejected_updates)
        .Int("rejected_query_ids", r.rejected_query_ids)
        .Int("violations", r.violations);
  }

  bench::Banner("RUNTIME-4", "update path: events applied per shard-lock hold");
  {
    // An update-heavy driver run, then the bus.drain_batch_size histogram
    // lifted from the obs registry: each burst of 64 tick-alls is one run,
    // applied on every shard under one lock hold.
    EngineConfig config;
    config.num_shards = 8;
    config.system.cache_capacity = static_cast<size_t>(num_sources) * 3 / 4;
    config.seed = kSeed;
    ShardedEngine engine(config, Sources(num_sources));
    DriverConfig driver;
    driver.num_threads = 2;
    driver.queries_per_thread = queries_per_thread;
    driver.workload = Workload(num_sources);
    driver.run_updates = true;
    driver.update_burst = 64;
    driver.point_read_fraction = 0.5;
    driver.seed = kSeed + 4;
    DriverReport r = RunWorkload(engine, driver);
    total_violations += r.violations;
    obs::MetricsRegistry::Snapshot snap = engine.metrics().TakeSnapshot();
    double drain_p50 = snap.HistogramQuantile("bus.drain_batch_size", 0.5);
    double drain_p95 = snap.HistogramQuantile("bus.drain_batch_size", 0.95);
    int64_t batches = snap.HistogramCount("bus.drain_batch_size");
    std::printf("  updates under load (burst 64): drain_batch_size p50 %.0f "
                "p95 %.0f over %lld drains, %lld ticks\n",
                drain_p50, drain_p95, static_cast<long long>(batches),
                static_cast<long long>(r.ticks));
    report.AddRun()
        .Str("scenario", "drain_histogram")
        .Str("mode", "seqlock")
        .Int("shards", 8)
        .Int("threads", 2)
        .Int("update_burst", 64)
        .Num("drain_batch_p50", drain_p50)
        .Num("drain_batch_p95", drain_p95)
        .Int("drain_batches", batches)
        .Int("ticks", r.ticks)
        .Num("qps", r.queries_per_second)
        .Int("violations", r.violations);
  }

  // Scaling gate, honestly conditional: the slab's zero-hash seqlock read
  // path must scale 8 threads >= 3x 1 thread (8 shards, uniform ids), but
  // only a host with >= 8 hardware threads can run 8 readers in parallel —
  // on smaller hosts the ratio is recorded in the trajectory and the gate
  // is skipped, never faked.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const double scaling = qps_1t > 0.0 ? qps_8t / qps_1t : 0.0;
  const bool scaling_gated = hw_threads >= 8;
  const bool scaling_ok = !scaling_gated || scaling >= 3.0;
  report.Meta()
      .Num("seqlock_8t_over_1t", scaling)
      .Bool("seqlock_scaling_gated", scaling_gated);

  bool wrote = report.WriteFile(out_path);
  std::printf("\n");
  bench::Note(wrote ? "trajectory written to " + out_path
                    : "FAILED to write " + out_path);
  bench::Note(deterministic
                  ? "determinism: 1 shard / 1 thread MATCHES CacheSystem"
                  : "determinism: MISMATCH vs CacheSystem (BUG)");
  bench::Note(total_violations == 0
                  ? "precision: every concurrent result met its constraint"
                  : "precision: CONSTRAINT VIOLATIONS OBSERVED (BUG)");
  bench::Note(concurrent_progress
                  ? "concurrency: multi-thread runs completed all queries"
                  : "concurrency: multi-thread runs made no progress (BUG)");
  {
    char scaling_note[160];
    if (scaling_gated) {
      std::snprintf(scaling_note, sizeof(scaling_note),
                    "seqlock scaling: 8t = %.2fx 1t (gate >= 3x, host has %u "
                    "hw threads) -> %s",
                    scaling, hw_threads, scaling_ok ? "OK" : "FAIL");
    } else {
      std::snprintf(scaling_note, sizeof(scaling_note),
                    "seqlock scaling: 8t = %.2fx 1t recorded, gate skipped "
                    "(host has %u hw threads, needs >= 8)",
                    scaling, hw_threads);
    }
    bench::Note(scaling_note);
  }
  return (deterministic && total_violations == 0 && concurrent_progress &&
          scaling_ok && wrote)
             ? 0
             : 1;
}
