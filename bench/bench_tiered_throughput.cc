// Scaling bench for the tiered (edge/regional) concurrent runtime
// (src/runtime/tiered_engine.{h,cc}) — and the writer of BENCH_tiered.json,
// the tiered half of the repo's persisted perf trajectory.
//
// Part 1 re-validates the tier's equivalence claim: a TieredEngine driven
// in lockstep from one thread must reproduce the sequential
// HierarchicalSystem's answers and per-link (WAN/LAN) charges exactly —
// the 1-edge/1-shard case is the pinned acceptance bar, and a multi-edge
// case checks that per-entity policy RNG streams keep the guarantee
// independent of topology.
//
// Part 2 sweeps the geo-skewed tiered serving workload (per-edge Zipf
// hotspots, precision-bounded edge reads, updates streaming through the
// bus) across edges × worker threads. Edge reads validate an optimistic
// per-entry versioned read and take no lock at all (rows keep "mode":
// "seqlock" so they compare with older trajectories). Every returned
// interval is checked against its constraint; violations must be 0.
//
// Part 3 runs the phase-shifting edge-affinity scenario: each thread's
// home edge rotates mid-run, so every hotspot migrates to an edge whose
// derived widths were tuned for different traffic and the adaptive δ
// must re-converge.
//
// Usage: bench_tiered_throughput [queries_per_thread] [num_sources] [out.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "hierarchy/hierarchy.h"
#include "runtime/tiered_engine.h"
#include "runtime/workload_driver.h"
#include "util/rng.h"

namespace {

using namespace apc;

constexpr uint64_t kSeed = 2026;
constexpr double kZipfS = 1.1;

HierarchyConfig SequentialConfig(int sources, int edges) {
  HierarchyConfig config;
  config.num_sources = sources;
  config.num_edges = edges;
  config.wan = {4.0, 8.0};
  config.lan = {1.0, 2.0};
  config.regional_policy.alpha = 1.0;
  config.regional_policy.initial_width = 4.0;
  config.edge_policy.alpha = 1.0;
  config.edge_policy.initial_width = 8.0;
  return config;
}

TieredConfig TieredFrom(const HierarchyConfig& sequential, int num_shards) {
  TieredConfig config;
  config.num_edges = sequential.num_edges;
  config.num_shards = num_shards;
  config.wan = sequential.wan;
  config.lan = sequential.lan;
  config.regional_policy = sequential.regional_policy;
  config.edge_policy = sequential.edge_policy;
  config.seed = kSeed;
  return config;
}

std::vector<std::unique_ptr<UpdateStream>> Streams(int n, uint64_t seed) {
  return BuildRandomWalkStreams(n, RandomWalkParams{}, seed);
}

/// Part 1: lockstep parity vs the sequential HierarchicalSystem — same
/// answers tick for tick, same WAN and LAN charges at the end.
bool ParityCheck(int num_sources, int num_edges) {
  constexpr int64_t kTicks = 400;
  HierarchyConfig seq_config = SequentialConfig(num_sources, num_edges);
  HierarchicalSystem sequential(seq_config, Streams(num_sources, kSeed ^ 0x7),
                                kSeed);
  sequential.BeginMeasurement(0);

  TieredEngine tiered(TieredFrom(seq_config, 1),
                      Streams(num_sources, kSeed ^ 0x7));
  tiered.PopulateInitial(0);
  tiered.BeginMeasurement(0);

  Rng reads(kSeed ^ 0xF00D);
  bool answers_match = true;
  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    tiered.TickAll(t);
    int edge = static_cast<int>(reads.UniformInt(0, num_edges - 1));
    int id = static_cast<int>(reads.UniformInt(0, num_sources - 1));
    double constraint = reads.Uniform(0.0, 30.0);
    answers_match = answers_match &&
                    sequential.Read(edge, id, constraint, t) ==
                        tiered.Read(edge, id, constraint, t);
  }
  sequential.EndMeasurement(kTicks);
  tiered.EndMeasurement(kTicks);

  EngineCosts wan = tiered.WanCosts();
  EngineCosts lan = tiered.LanCosts();
  bool match =
      answers_match &&
      wan.value_refreshes == sequential.wan_costs().value_refreshes() &&
      wan.query_refreshes == sequential.wan_costs().query_refreshes() &&
      lan.value_refreshes == sequential.lan_costs().value_refreshes() &&
      lan.query_refreshes == sequential.lan_costs().query_refreshes() &&
      wan.total_cost + lan.total_cost ==
          sequential.wan_costs().total_cost() +
              sequential.lan_costs().total_cost();
  std::printf(
      "  %d edge%s vs HierarchicalSystem: wan vr=%lld qr=%lld | "
      "lan vr=%lld qr=%lld  ->  %s\n",
      num_edges, num_edges == 1 ? " " : "s",
      static_cast<long long>(wan.value_refreshes),
      static_cast<long long>(wan.query_refreshes),
      static_cast<long long>(lan.value_refreshes),
      static_cast<long long>(lan.query_refreshes),
      match ? "MATCH" : "MISMATCH");
  return match;
}

TieredDriverReport RunOne(int edges, int threads, int64_t queries_per_thread,
                          int num_sources, int num_phases,
                          int64_t* reads_executed) {
  HierarchyConfig seq_config = SequentialConfig(num_sources, edges);
  // Shards scale with the host, never past the source count.
  int shards = std::min(num_sources, 4);
  TieredEngine engine(TieredFrom(seq_config, shards),
                      Streams(num_sources, kSeed ^ 0x31));

  TieredWorkloadConfig workload;
  workload.num_threads = threads;
  workload.queries_per_thread = queries_per_thread;
  workload.num_sources = num_sources;
  workload.zipf_s = kZipfS;
  workload.constraints = {15.0, 1.0};
  workload.run_updates = true;
  workload.update_burst = 8;
  workload.num_phases = num_phases;
  // Seeded by the cell alone: every repeat faces identical draws.
  workload.seed = kSeed + static_cast<uint64_t>(edges * 1000 + threads * 10);
  TieredDriverReport report = RunTieredWorkload(engine, workload);
  *reads_executed = engine.counters().reads.load();
  return report;
}

/// Median-of-repeats, like bench_runtime_throughput: the committed
/// trajectory tracks the code, not the interleaving lottery. Violations
/// accumulate across ALL repeats.
TieredDriverReport RunMedian(int repeats, int edges, int threads,
                             int64_t queries_per_thread, int num_sources,
                             int64_t* reads_executed,
                             int64_t* all_violations) {
  std::vector<TieredDriverReport> reports;
  std::vector<int64_t> executed(static_cast<size_t>(repeats), 0);
  for (int r = 0; r < repeats; ++r) {
    reports.push_back(RunOne(edges, threads, queries_per_thread, num_sources,
                             /*num_phases=*/1,
                             &executed[static_cast<size_t>(r)]));
    *all_violations += reports.back().violations;
  }
  std::vector<size_t> order(reports.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return reports[a].queries_per_second < reports[b].queries_per_second;
  });
  size_t median = order[order.size() / 2];
  *reads_executed = executed[median];
  return reports[median];
}

}  // namespace

int main(int argc, char** argv) {
  int64_t queries_per_thread = argc > 1 ? std::atoll(argv[1]) : 20000;
  int num_sources = argc > 2 ? std::atoi(argv[2]) : 256;
  std::string out_path = argc > 3 ? argv[3] : "BENCH_tiered.json";
  if (queries_per_thread <= 0 || num_sources <= 0) {
    std::fprintf(stderr,
                 "usage: %s [queries_per_thread] [num_sources] [out.json]\n",
                 argv[0]);
    return 2;
  }

  bench::BenchReport report("tiered_throughput");
  report.Meta()
      .Int("queries_per_thread", queries_per_thread)
      .Int("num_sources", num_sources)
      .Num("zipf_s", kZipfS)
      .Str("costs", "wan cvr=4 cqr=8, lan cvr=1 cqr=2")
      .Int("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("workload",
           "geo-skewed precision-bounded edge reads, tick-all updates via "
           "bus")
      .Str("units", "latency us, qps reads/s, cost rates cost/tick");

  bench::Banner("TIERED-1",
                "lockstep TieredEngine reproduces HierarchicalSystem");
  bool parity = ParityCheck(/*num_sources=*/8, /*num_edges=*/1);
  parity = ParityCheck(/*num_sources=*/8, /*num_edges=*/3) && parity;

  bench::Banner("TIERED-2", "geo-skewed edge serving: edges x threads");
  bench::Note("per-edge Zipf hotspots; seqlock edge reads take no lock;");
  bench::Note("escalation: edge -> regional (lan Cqr) -> source (wan Cqr)");
  std::printf("\n  %6s %8s %12s %9s %9s %10s %10s %7s %11s\n", "edges",
              "threads", "reads/s", "p50 us", "p99 us", "edge-hit%",
              "cost/tick", "ticks", "violations");

  int64_t total_violations = 0;
  bool concurrent_progress = false;
  for (int edges : {1, 4}) {
    for (int threads : {1, 4, 8}) {
      int64_t executed = 0;
      const TieredDriverReport r =
          RunMedian(/*repeats=*/5, edges, threads, queries_per_thread,
                    num_sources, &executed, &total_violations);
      if (threads > 1 &&
          executed == static_cast<int64_t>(threads) * queries_per_thread) {
        concurrent_progress = true;
      }
      double edge_hit_pct =
          r.queries > 0
              ? 100.0 * static_cast<double>(r.edge_hits) /
                    static_cast<double>(r.queries)
              : 0.0;
      std::printf(
          "  %6d %8d %12.0f %9.1f %9.1f %9.1f%% %10.3f %7lld %11lld\n",
          edges, threads, r.queries_per_second, r.latency_p50_us,
          r.latency_p99_us, edge_hit_pct, r.TotalCostRate(),
          static_cast<long long>(r.ticks),
          static_cast<long long>(r.violations));
      report.AddRun()
          .Str("scenario", "steady")
          .Str("mode", "seqlock")
          .Int("edges", edges)
          .Int("threads", threads)
          .Num("zipf_s", kZipfS)
          .Num("qps", r.queries_per_second)
          .Num("p50_us", r.latency_p50_us)
          .Num("p95_us", r.latency_p95_us)
          .Num("p99_us", r.latency_p99_us)
          .Num("wan_cost_rate", r.wan.CostRate())
          .Num("lan_cost_rate", r.lan.CostRate())
          .Num("cost_rate", r.TotalCostRate())
          .Int("queries", r.queries)
          .Int("ticks", r.ticks)
          .Int("edge_hits", r.edge_hits)
          .Int("regional_hits", r.regional_hits)
          .Int("source_pulls", r.source_pulls)
          .Int("derived_pushes", r.derived_pushes)
          .Int("violations", r.violations);
    }
  }

  bench::Banner("TIERED-3", "phase-shifting edge affinity (hotspot migration)");
  bench::Note("3 phases: every thread's home edge rotates, each Zipf hotspot");
  bench::Note("lands on an edge whose derived widths were tuned elsewhere");
  {
    int64_t executed = 0;
    TieredDriverReport r =
        RunOne(/*edges=*/4, /*threads=*/4, queries_per_thread, num_sources,
               /*num_phases=*/3, &executed);
    total_violations += r.violations;
    std::printf("  %lld reads in %.2fs -> %.0f reads/s, p99 %.1f us, "
                "%lld ticks, hit mix %lld/%lld/%lld, %lld violations\n",
                static_cast<long long>(r.queries), r.wall_seconds,
                r.queries_per_second, r.latency_p99_us,
                static_cast<long long>(r.ticks),
                static_cast<long long>(r.edge_hits),
                static_cast<long long>(r.regional_hits),
                static_cast<long long>(r.source_pulls),
                static_cast<long long>(r.violations));
    report.AddRun()
        .Str("scenario", "phase_shift")
        .Str("mode", "seqlock")
        .Int("edges", 4)
        .Int("threads", 4)
        .Num("zipf_s", kZipfS)
        .Int("phases", 3)
        .Num("qps", r.queries_per_second)
        .Num("p50_us", r.latency_p50_us)
        .Num("p95_us", r.latency_p95_us)
        .Num("p99_us", r.latency_p99_us)
        .Num("wan_cost_rate", r.wan.CostRate())
        .Num("lan_cost_rate", r.lan.CostRate())
        .Num("cost_rate", r.TotalCostRate())
        .Int("queries", r.queries)
        .Int("ticks", r.ticks)
        .Int("edge_hits", r.edge_hits)
        .Int("regional_hits", r.regional_hits)
        .Int("source_pulls", r.source_pulls)
        .Int("derived_pushes", r.derived_pushes)
        .Int("violations", r.violations);
  }

  bool wrote = report.WriteFile(out_path);
  std::printf("\n");
  bench::Note(wrote ? "trajectory written to " + out_path
                    : "FAILED to write " + out_path);
  bench::Note(parity ? "parity: lockstep TieredEngine MATCHES "
                       "HierarchicalSystem (answers + WAN/LAN charges)"
                     : "parity: MISMATCH vs HierarchicalSystem (BUG)");
  bench::Note(total_violations == 0
                  ? "precision: every concurrent read met its constraint"
                  : "precision: CONSTRAINT VIOLATIONS OBSERVED (BUG)");
  bench::Note(concurrent_progress
                  ? "concurrency: multi-thread runs completed all reads"
                  : "concurrency: multi-thread runs made no progress (BUG)");
  return (parity && total_violations == 0 && concurrent_progress && wrote)
             ? 0
             : 1;
}
