// Overhead bench for the observability layer (src/obs/) — and the data
// source for BENCH_obs.json: what does the crash-dump flight recorder
// cost when it stays armed? The baseline is the same binary, disarmed.
//
// The GATED row drives perfbench's tiered_geo shape (4 edges caching a
// quarter of the ids each, Zipf(1.1) edge reads around rotating hotspots,
// 1 in 20 a regional aggregate, point subscriptions on one id in 32) plus
// push loss on both links, in lockstep from the bench thread: each tick a
// TickAll, a hub drain, then kReadsPerTick reads. It records kFlight's
// tick and notify sites, and it drives the data-plane sites kFlight skips
// (escalations, pulls, fan-outs) at tiered_geo's rates, so moving one of
// them into kFlight shows here. No hand-off sits on the timed path: one
// per tick, to another thread or a wait for the notifier, moved the
// median by 7 to 11 points between identical runs. kPairs alternating
// armed (kFlight) and disarmed pairs each give a time-per-read ratio; the
// exit code fails when their median exceeds kMaxArmedRatio or an armed
// run misses a kFlight site the row drives. (The loud pass of the lockstep parity
// tests pins that the recorder never changes an answer; here subscription
// escalations race the reads, so two runs need not answer alike.)
//
// Three INFORMATIONAL rows replicate bench_runtime_throughput's
// widest-concurrency seqlock cell (8 shards x 8 threads, updates through
// the bus), each the qps-median of 7 runs: "steady_flight_recorder"
// (armed at kFlight), "steady" (disarmed) and "steady_traced" (kFull).
// They reach the bus's drain batches and the race-only retries and
// fallbacks. Every row reports trace_records_per_op: records written
// (retained plus overwritten) per read.
//
// Usage: bench_obs_overhead [queries_per_thread] [num_sources] [out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "query/constraint_gen.h"
#include "query/query_gen.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "runtime/workload_driver.h"
#include "util/rng.h"

namespace {

using namespace apc;

// Identical to bench_runtime_throughput's sweep constants — the raced rows
// must be comparable against the committed BENCH_runtime.json trajectory.
constexpr uint64_t kSeed = 77;
constexpr double kPointReadFraction = 0.95;
constexpr int kShards = 8;
constexpr int kThreads = 8;

// The gated lockstep row: tiered_geo's shape (perfbench/src/workloads.cc)
// plus push loss, which tiered_geo does not inject.
constexpr int kEdges = 4;
constexpr int kPhases = 4;
constexpr double kZipfS = 1.1;
constexpr int kReadsPerTick = 250;
constexpr int kAggregateEvery = 20;
constexpr int kSubscriptionEvery = 32;
constexpr double kPushLoss = 0.05;
constexpr int64_t kWarmupTicks = 100;
constexpr int64_t kTimedTicks = 600;
constexpr int kPairs = 41;  // odd, so the median is one pair's ratio
constexpr double kMaxArmedRatio = 1.05;

QueryWorkloadParams Workload(int num_sources) {
  QueryWorkloadParams params;
  params.num_sources = num_sources;
  params.group_size = 10;
  params.max_fraction = 0.25;
  params.min_fraction = 0.25;
  params.avg_fraction = 0.25;
  params.constraints.avg = 20.0;
  params.constraints.rho = 1.0;
  return params;
}

EngineConfig Engine(int num_sources) {
  EngineConfig config;
  config.num_shards = kShards;
  config.system.cache_capacity = static_cast<size_t>(num_sources) * 3 / 4;
  config.seed = kSeed;
  config.read_lock_mode = ReadLockMode::kSeqlock;
  return config;
}

TieredConfig Tiered(int num_sources) {
  TieredConfig config;
  config.num_edges = kEdges;
  config.num_shards = kShards;
  config.edge_capacity = static_cast<size_t>(num_sources / kEdges);
  config.wan_push_loss = kPushLoss;
  config.lan_push_loss = kPushLoss;
  config.seed = kSeed;
  return config;
}

/// Records written since `dropped_before` was read: the retained ones plus
/// every overwrite. Quiesced-only, like DumpTrace.
int64_t RecordsWritten(const std::vector<obs::TraceRecord>& dump,
                       int64_t dropped_before) {
  return static_cast<int64_t>(dump.size()) + obs::TraceRecorder::dropped() -
         dropped_before;
}

DriverReport RunRaced(int64_t queries_per_thread, int num_sources,
                      int64_t* seqlock_retries) {
  ShardedEngine engine(Engine(num_sources),
                       BuildRandomWalkSources(num_sources, RandomWalkParams{},
                                              AdaptivePolicyParams{}, kSeed));
  DriverConfig driver;
  driver.num_threads = kThreads;
  driver.queries_per_thread = queries_per_thread;
  driver.workload = Workload(num_sources);
  driver.run_updates = true;
  driver.point_read_fraction = kPointReadFraction;
  // The same seed formula bench_runtime_throughput uses for this cell.
  driver.seed = kSeed + static_cast<uint64_t>(kShards * 1000 + kThreads * 10);
  DriverReport report = RunWorkload(engine, driver);
  *seqlock_retries = engine.counters().seqlock_retries.load();
  return report;
}

/// One lockstep read: an edge read of `id`, or (query >= 0) the aggregate
/// `queries[query]` at the regional tier.
struct LockstepOp {
  int edge = 0;
  int id = 0;
  double constraint = 0.0;
  int query = -1;
};

/// The reads of every tick, warm-up included, drawn once and replayed by
/// every run so both arms of a pair issue identical requests.
struct LockstepSchedule {
  std::vector<LockstepOp> ops;
  std::vector<Query> queries;
  std::vector<std::pair<Query, double>> subscriptions;
};

LockstepSchedule MakeSchedule(int num_sources) {
  QueryWorkloadParams point_params = Workload(num_sources);
  point_params.group_size = 1;
  point_params.zipf_s = kZipfS;
  QueryWorkloadParams agg_params = Workload(num_sources);
  agg_params.zipf_s = kZipfS;
  QueryGenerator points(point_params, kSeed ^ 0x5F1C);
  QueryGenerator aggregates(agg_params, kSeed ^ 0xA66);

  LockstepSchedule schedule;
  const int block = num_sources / kEdges;
  const int64_t ticks = kWarmupTicks + kTimedTicks;
  schedule.ops.resize(static_cast<size_t>(ticks * kReadsPerTick));
  Query point;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    LockstepOp& op = schedule.ops[i];
    if (i % kAggregateEvery == 0) {
      op.query = static_cast<int>(schedule.queries.size());
      schedule.queries.push_back(aggregates.Next());
      continue;
    }
    // tiered_geo's rotating hotspots: edge e's hottest id in phase p is
    // the first id of block (e + p) mod kEdges; the warm-up is phase 0.
    int64_t timed_tick =
        static_cast<int64_t>(i) / kReadsPerTick - kWarmupTicks;
    int phase = timed_tick < 0
                    ? 0
                    : static_cast<int>(timed_tick * kPhases / kTimedTicks);
    op.edge = static_cast<int>(i % kEdges);
    points.Next(&point);
    op.id = (((op.edge + phase) % kEdges) * block + point.source_ids[0]) %
            num_sources;
    op.constraint = point.constraint;
  }

  // tiered_geo's standing queries: distinct ids (a partial Fisher-Yates),
  // bounds U[20, 60].
  Rng rng(kSeed ^ 0x5B5C);
  ConstraintGenerator deltas(ConstraintParams{40.0, 0.5}, kSeed ^ 0xDE17A);
  std::vector<int> ids(static_cast<size_t>(num_sources));
  for (int id = 0; id < num_sources; ++id) ids[static_cast<size_t>(id)] = id;
  for (int i = 0; i < num_sources / kSubscriptionEvery; ++i) {
    int j = static_cast<int>(rng.UniformInt(i, num_sources - 1));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
    Query sub;
    sub.kind = AggregateKind::kSum;
    sub.source_ids.push_back(ids[static_cast<size_t>(i)]);
    schedule.subscriptions.emplace_back(sub, deltas.Next());
  }
  return schedule;
}

/// The kFlight sites an armed lockstep run must reach: event records and
/// span kinds (kSpanBegin's arg).
constexpr obs::TraceEvent kLockstepEvents[] = {
    obs::TraceEvent::kOfferChargedLost, obs::TraceEvent::kNotifyEvaluate,
    obs::TraceEvent::kNotifyShip};
constexpr obs::SpanKind kLockstepSpans[] = {obs::SpanKind::kTick,
                                            obs::SpanKind::kNotifyBatch,
                                            obs::SpanKind::kNotifyEval};

struct LockstepRun {
  double ns_per_op = 0.0;
  int64_t trace_records = 0;  // written by an armed run
  std::string missed_sites;   // kFlight sites an armed run never recorded
};

/// The sites of kLockstepEvents/kLockstepSpans absent from `dump`.
std::string MissedSites(const std::vector<obs::TraceRecord>& dump) {
  auto seen = [&](obs::TraceEvent event, int64_t arg) {
    return std::any_of(dump.begin(), dump.end(),
                       [&](const obs::TraceRecord& r) {
                         return r.event == event &&
                                (arg < 0 || r.arg == arg);
                       });
  };
  std::string missed;
  for (obs::TraceEvent event : kLockstepEvents) {
    if (!seen(event, -1)) {
      missed += std::string(" ") + obs::TraceEventName(event);
    }
  }
  for (obs::SpanKind kind : kLockstepSpans) {
    if (!seen(obs::TraceEvent::kSpanBegin, static_cast<int64_t>(kind))) {
      missed += std::string(" span:") + obs::SpanKindName(kind);
    }
  }
  return missed;
}

/// Replays `schedule` on a fresh engine, armed at kFlight or disarmed.
/// Construction, population and the warm-up ticks stay outside the timed
/// span: an armed thread allocates its trace ring on its first record, a
/// one-time cost that a per-read figure leaves out.
LockstepRun RunLockstep(const LockstepSchedule& schedule, int num_sources,
                        bool armed) {
  const int64_t dropped_before = obs::TraceRecorder::dropped();
  if (armed) obs::FlightRecorder::Arm();
  LockstepRun run;
  {
    TieredEngine engine(Tiered(num_sources),
                        BuildRandomWalkStreams(num_sources,
                                               RandomWalkParams{}, kSeed));
    engine.PopulateInitial(0);
    for (const auto& [query, delta] : schedule.subscriptions) {
      engine.Subscribe(query, delta, 0);
    }
    std::vector<Notification> notes;
    auto start = std::chrono::steady_clock::now();
    size_t next = 0;
    for (int64_t t = 1; t <= kWarmupTicks + kTimedTicks; ++t) {
      if (t == kWarmupTicks + 1) start = std::chrono::steady_clock::now();
      engine.TickAll(t);
      while (engine.notifications().TryPopBatch(&notes, 256) > 0) {
      }
      for (int r = 0; r < kReadsPerTick; ++r, ++next) {
        const LockstepOp& op = schedule.ops[next];
        if (op.query >= 0) {
          engine.ExecuteQuery(schedule.queries[static_cast<size_t>(op.query)],
                              t);
        } else {
          engine.Read(op.edge, op.id, op.constraint, t);
        }
      }
    }
    auto end = std::chrono::steady_clock::now();
    double elapsed_ns =
        std::chrono::duration<double, std::nano>(end - start).count();
    run.ns_per_op = elapsed_ns / static_cast<double>(kTimedTicks *
                                                     kReadsPerTick);
  }  // the notifier is joined here: every thread is quiet
  if (armed) {
    obs::FlightRecorder::Disarm();
    std::vector<obs::TraceRecord> dump = obs::TraceRecorder::DumpTrace();
    run.trace_records = RecordsWritten(dump, dropped_before);
    run.missed_sites = MissedSites(dump);
    obs::TraceRecorder::Reset();
  }
  return run;
}

/// Middle element; kPairs is odd.
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  int64_t queries_per_thread = argc > 1 ? std::atoll(argv[1]) : 20000;
  int num_sources = argc > 2 ? std::atoi(argv[2]) : 256;
  std::string out_path = argc > 3 ? argv[3] : "BENCH_obs.json";
  if (queries_per_thread <= 0 || !Workload(num_sources).IsValid() ||
      !Engine(num_sources).IsValid() || !Tiered(num_sources).IsValid()) {
    std::fprintf(stderr,
                 "usage: %s [queries_per_thread] [num_sources] [out.json]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("OBS-1", "armed flight recorder vs disarmed, one binary");

  // -- the gated lockstep row -------------------------------------------
  LockstepSchedule schedule = MakeSchedule(num_sources);
  RunLockstep(schedule, num_sources, /*armed=*/false);  // unmeasured warmup
  std::vector<double> armed_ns;
  std::vector<double> unarmed_ns;
  std::vector<double> ratios;
  std::vector<double> armed_records;
  std::string missed_sites;
  for (int pair = 0; pair < kPairs; ++pair) {
    bool armed_first = pair % 2 == 0;
    LockstepRun first = RunLockstep(schedule, num_sources, armed_first);
    LockstepRun second = RunLockstep(schedule, num_sources, !armed_first);
    const LockstepRun& armed = armed_first ? first : second;
    const LockstepRun& unarmed = armed_first ? second : first;
    if (missed_sites.empty()) missed_sites = armed.missed_sites;
    armed_ns.push_back(armed.ns_per_op);
    unarmed_ns.push_back(unarmed.ns_per_op);
    ratios.push_back(armed.ns_per_op / unarmed.ns_per_op);
    armed_records.push_back(static_cast<double>(armed.trace_records));
  }
  const double lockstep_reads =
      static_cast<double>((kWarmupTicks + kTimedTicks) * kReadsPerTick);
  double ratio = Median(ratios);
  bool within_bound = ratio <= kMaxArmedRatio;
  double lockstep_records = Median(armed_records);
  std::printf(
      "  lockstep tiered %d shards x %d edges: armed %.1f ns/read, unarmed "
      "%.1f ns/read, armed/unarmed median %.4f over %d pairs (bound %.2f), "
      "%.3f trace records per read\n",
      kShards, kEdges, Median(armed_ns), Median(unarmed_ns), ratio, kPairs,
      kMaxArmedRatio, lockstep_records / lockstep_reads);

  bench::BenchReport report("obs_overhead");
  report.Meta()
      .Int("queries_per_thread", queries_per_thread)
      .Int("num_sources", num_sources)
      .Int("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("gated_row",
           "lockstep tiered_geo: 8 shards x 4 edges, edge capacity n/4, "
           "push loss 0.05 on both links, one point subscription per 32 "
           "ids; each tick TickAll, a hub drain, then 250 "
           "reads (Zipf 1.1 edge reads around rotating hotspots, 1 in 20 a "
           "regional aggregate); 600 timed ticks after 100 warm-up ticks")
      .Str("acceptance",
           "median over alternating pairs of armed(kFlight)/unarmed ns per "
           "read <= 1.05; every armed run records each kFlight site the "
           "row reaches")
      .Int("pairs", kPairs)
      .Num("armed_unarmed_ratio", ratio)
      .Num("overhead_pct", 100.0 * (ratio - 1.0))
      .Str("raced_rows",
           "informational: bench_runtime_throughput's seqlock 8-shard x "
           "8-thread cell, point_read_fraction 0.95, updates via bus, "
           "qps-median of 7 runs")
      .Str("units",
           "ns_per_op ns per timed read; latency us, qps queries/s; "
           "trace_records written (retained + overwritten), warm-up "
           "included: one armed lockstep run (the median), or all 7 runs "
           "of a raced row; trace_records_per_op over the same runs' "
           "reads");
  for (bool armed : {true, false}) {
    double records = armed ? lockstep_records : 0.0;
    report.AddRun()
        .Str("scenario", armed ? "lockstep_flight_recorder" : "lockstep")
        .Str("mode", "seqlock")
        .Int("shards", kShards)
        .Int("edges", kEdges)
        .Int("threads", 1)
        .Int("warmup_ticks", kWarmupTicks)
        .Int("ticks", kTimedTicks)
        .Int("reads", kTimedTicks * kReadsPerTick)
        .Num("ns_per_op", Median(armed ? armed_ns : unarmed_ns))
        .Int("trace_records", static_cast<int64_t>(records))
        .Num("trace_records_per_op", records / lockstep_reads);
  }

  // -- the informational raced rows -------------------------------------
  int64_t total_violations = 0;
  // qps-median run per configuration, same policy as
  // bench_runtime_throughput: the committed number tracks the code, not
  // the interleaving lottery.
  constexpr int kRepeats = 7;
  auto run_median = [&](int64_t* seqlock_retries) -> DriverReport {
    std::vector<DriverReport> reports;
    for (int rep = 0; rep < kRepeats; ++rep) {
      reports.push_back(
          RunRaced(queries_per_thread, num_sources, seqlock_retries));
      total_violations += reports.back().violations;
    }
    std::sort(reports.begin(), reports.end(),
              [](const DriverReport& a, const DriverReport& b) {
                return a.queries_per_second < b.queries_per_second;
              });
    return reports[reports.size() / 2];
  };

  // Each raced row records over all kRepeats runs of its median.
  auto add_row = [&](const std::string& scenario, const DriverReport& r,
                     int64_t seqlock_retries, int64_t trace_records) {
    double per_op = static_cast<double>(trace_records) /
                    static_cast<double>(kRepeats * r.queries);
    std::printf(
        "  %-22s seqlock %d shards x %d threads: %.0f q/s, "
        "p50 %.1f us, p99 %.1f us, %.3f trace records per read\n",
        scenario.c_str(), kShards, kThreads, r.queries_per_second,
        r.latency_p50_us, r.latency_p99_us, per_op);
    report.AddRun()
        .Str("scenario", scenario)
        .Str("mode", "seqlock")
        .Num("zipf_s", 0.0)
        .Int("shards", kShards)
        .Int("threads", kThreads)
        .Num("qps", r.queries_per_second)
        .Num("p50_us", r.latency_p50_us)
        .Num("p95_us", r.latency_p95_us)
        .Num("p99_us", r.latency_p99_us)
        .Int("queries", r.queries)
        .Int("ticks", r.ticks)
        .Int("seqlock_retries", seqlock_retries)
        .Int("trace_records", trace_records)
        .Num("trace_records_per_op", per_op)
        .Int("violations", r.violations);
  };

  // One unmeasured warmup run: thread creation, page faults, and allocator
  // steady state land outside every measured row.
  {
    int64_t warmup_retries = 0;
    RunRaced(queries_per_thread, num_sources, &warmup_retries);
  }

  int64_t dropped_before = obs::TraceRecorder::dropped();
  obs::FlightRecorder::Arm();
  int64_t armed_retries = 0;
  DriverReport armed = run_median(&armed_retries);
  obs::FlightRecorder::Disarm();
  int64_t flight_records =
      RecordsWritten(obs::TraceRecorder::DumpTrace(), dropped_before);
  obs::TraceRecorder::Reset();
  add_row("steady_flight_recorder", armed, armed_retries, flight_records);

  int64_t seqlock_retries = 0;
  DriverReport steady = run_median(&seqlock_retries);
  add_row("steady", steady, seqlock_retries, 0);

  dropped_before = obs::TraceRecorder::dropped();
  obs::TraceRecorder::Enable(/*ring_capacity=*/1 << 14);
  int64_t traced_retries = 0;
  DriverReport traced = run_median(&traced_retries);
  obs::TraceRecorder::Disable();
  int64_t trace_records =
      RecordsWritten(obs::TraceRecorder::DumpTrace(), dropped_before);
  obs::TraceRecorder::Reset();
  add_row("steady_traced", traced, traced_retries, trace_records);

  bool wrote = report.WriteFile(out_path);
  bench::Note(wrote ? "rows written to " + out_path
                    : "FAILED to write " + out_path);
  bench::Note(within_bound
                  ? "overhead: the armed recorder is within the 5% bound"
                  : "overhead: THE ARMED RECORDER EXCEEDS THE 5% BOUND");
  bench::Note(missed_sites.empty()
                  ? "coverage: the armed lockstep row reached every kFlight "
                    "site it drives"
                  : "coverage: THE ARMED LOCKSTEP ROW NEVER RECORDED" +
                        missed_sites);
  bench::Note(total_violations == 0
                  ? "precision: every concurrent result met its constraint"
                  : "precision: CONSTRAINT VIOLATIONS OBSERVED (BUG)");
  bench::Note(trace_records > 0
                  ? "tracing: the recorder captured events when enabled"
                  : "tracing: NO EVENTS CAPTURED (BUG)");
  return (wrote && within_bound && missed_sites.empty() &&
          total_violations == 0 && trace_records > 0)
             ? 0
             : 1;
}
