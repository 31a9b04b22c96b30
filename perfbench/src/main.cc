// Logical-clock benchmark of the apcache engines. One invocation runs one
// named workload for about --seconds seconds as a series of rounds (fresh
// inputs, fresh engine, warm-up, fixed measured ticks), checks every answer,
// and prints one JSON object as its last line of standard output. See
// perfbench/README.md for the schedule, the workloads and the metrics.
//
//   apc_perfbench --workload point_hot --seed 1 --seconds 10 --trace 0
//                 [--trace-dir DIR]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner.h"
#include "spans.h"
#include "workloads.h"

#ifndef APC_BENCH_BUILD_TYPE
#define APC_BENCH_BUILD_TYPE ""
#endif
#ifndef APC_BENCH_COMPILER
#define APC_BENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// The q-quantile over rounds of one per-round figure, interpolated
/// between the sorted values.
template <class F>
double QuantileOf(const std::vector<RoundResult>& rounds, double q, F figure) {
  std::vector<double> values;
  values.reserve(rounds.size());
  for (const RoundResult& r : rounds) values.push_back(figure(r));
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

template <class F>
double MedianOf(const std::vector<RoundResult>& rounds, F figure) {
  return QuantileOf(rounds, 0.5, figure);
}

/// Timings take the run's best decile of rounds: on a shared host, other
/// tenants steal CPU from whole rounds at a time (lock holders and the pump
/// are descheduled for milliseconds), and those rounds say nothing about
/// the code. A change that slows every round still moves this figure.
constexpr double kBestLow = 0.1;   // for lower-is-better timings
constexpr double kBestHigh = 0.9;  // for higher-is-better rates

double ReadRate(const RoundResult& r) {
  return static_cast<double>(r.measured_reads) / r.measured_s;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// The end-to-end metrics of the untraced rounds: set-up time and Ω are
/// medians over rounds, timings the best decile.
std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds) {
  auto q = [&](LatencyHistogram RoundResult::*h, double quantile,
               double scale) {
    return QuantileOf(rounds, kBestLow, [&](const RoundResult& r) {
      return (r.*h).Quantile(quantile) / scale;
    });
  };
  return {
      {"setup_s", "s", MedianOf(rounds, [](const RoundResult& r) {
         return r.setup_s;
       })},
      {"read_ops_per_s", "1/s", QuantileOf(rounds, kBestHigh, ReadRate)},
      {"point_read_p50_ns", "ns", q(&RoundResult::point_ns, 0.50, 1.0)},
      {"point_read_p99_ns", "ns", q(&RoundResult::point_ns, 0.99, 1.0)},
      {"agg_query_p50_ns", "ns", q(&RoundResult::agg_ns, 0.50, 1.0)},
      {"agg_query_p99_ns", "ns", q(&RoundResult::agg_ns, 0.99, 1.0)},
      {"tick_apply_p50_us", "us", q(&RoundResult::tick_apply_ns, 0.50, 1e3)},
      {"tick_apply_p99_us", "us", q(&RoundResult::tick_apply_ns, 0.99, 1e3)},
      {"notify_lag_p50_us", "us", q(&RoundResult::notify_lag_ns, 0.50, 1e3)},
      {"notify_lag_p99_us", "us", q(&RoundResult::notify_lag_ns, 0.99, 1e3)},
      {"cost_per_tick", "cost/tick", MedianOf(rounds, [](const RoundResult& r) {
         return r.cost_per_tick;
       })},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"shard.seqlock_retries_per_kread", "count/kread"},
    {"shard.shared_fallbacks_per_kread", "count/kread"},
    {"shard.pull_free_read_ratio", "ratio"},
    {"core.value_refreshes_per_tick", "count/tick"},
    {"core.query_refreshes_per_tick", "count/tick"},
    {"core.mean_raw_width", "width"},
    {"query.sum_avg_p50_ns", "ns"},
    {"query.max_min_p50_ns", "ns"},
    {"bus.push_us", "us"},
    {"bus.pump_apply_us", "us"},
    {"bus.drain_batch_p50", "count"},
    {"tiered.edge_hit_ratio", "ratio"},
    {"tiered.regional_hits_per_kread", "count/kread"},
    {"tiered.source_pulls_per_kread", "count/kread"},
    {"tiered.derived_pushes_per_tick", "count/tick"},
    {"tiered.wan_cost_per_tick", "cost/tick"},
    {"tiered.lan_cost_per_tick", "cost/tick"},
    {"subs.evaluations_per_tick", "count/tick"},
    {"subs.notifications_per_pop", "count"},
    {"subs.escalations_per_tick", "count/tick"},
    {"subs.suppressed_ratio", "ratio"},
};

/// The per-layer metrics: medians over the traced rounds, plus the
/// benchmark's own clock cost and tracing overhead.
std::vector<Metric> PerLayer(const std::vector<RoundResult>& traced,
                             const std::vector<RoundResult>& untraced,
                             double clock_pair_ns) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    std::string name = m.name;
    out.push_back({name, m.unit, MedianOf(traced, [&](const RoundResult& r) {
                     auto it = r.layer.find(name);
                     return it == r.layer.end() ? 0.0 : it->second;
                   })});
  }
  out.push_back({"obs.clock_pair_ns", "ns", clock_pair_ns});
  double plain = MedianOf(untraced, ReadRate);
  double with_trace = MedianOf(traced, ReadRate);
  out.push_back({"obs.trace_overhead_pct", "%",
                 plain > 0.0 ? 100.0 * (plain - with_trace) / plain : 0.0});
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

uint64_t RoundSeed(uint64_t seed, int round) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(round + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  // Load threads = readers + producer + drainer, at most nproc.
  const int readers = std::max(1, std::min(2, nproc - 2));
  const double clock_pair_ns = MeasureClockPairNs();
  const std::string build_type = APC_BENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  if (!release) {
    std::fprintf(stderr, "warning: build type '%s' is not Release; figures "
                 "are not comparable\n", build_type.c_str());
  }
  std::printf(
      "{\"host\": {\"nproc\": %d, \"build_type\": \"%s\", \"release\": %s, "
      "\"apc_obs\": %d, \"compiler\": \"%s\", \"clock_pair_ns\": %.3f}, "
      "\"workload\": {\"name\": \"%s\", \"seed\": %llu, \"engine\": \"%s\", "
      "\"sources\": %d, \"shards\": %d, \"readers\": %d, "
      "\"load_threads\": %d, \"reads_per_reader_per_tick\": %d, "
      "\"warmup_ticks\": %d, \"measured_ticks\": %d, "
      "\"subscriptions\": %d, \"sample_every\": %d}}\n",
      nproc, build_type.c_str(), release ? "true" : "false", APC_OBS,
      APC_BENCH_COMPILER, clock_pair_ns, spec->name,
      static_cast<unsigned long long>(args.seed),
      spec->tiered ? "TieredEngine" : "ShardedEngine", spec->num_sources,
      spec->num_shards, readers, readers + 2, spec->reads_per_reader_per_tick,
      spec->warmup_ticks, spec->measured_ticks, spec->num_subscriptions,
      spec->sample_every);

  // Rounds until the time is spent; a traced run alternates untraced and
  // traced rounds so the tracing overhead is measured on the same inputs mix.
  const int min_rounds = args.trace ? 4 : 3;
  const int64_t start = NowNs();
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (int round = 0;; ++round) {
    RoundOptions options;
    options.seed = RoundSeed(args.seed, round);
    options.readers = readers;
    options.trace = args.trace && round % 2 == 1;
    RoundResult r = RunRound(*spec, options);
    attempted += r.attempted;
    failed += r.failed;
    std::fprintf(stderr,
                 "round %d%s: setup %.3f s, measured %.3f s, %.0f reads/s, "
                 "tick apply p50 %.1f us, notify lag p50 %.1f us, "
                 "cost/tick %.3f, failed %lld\n",
                 round, options.trace ? " (traced)" : "", r.setup_s,
                 r.measured_s, ReadRate(r), r.tick_apply_ns.Quantile(0.5) / 1e3,
                 r.notify_lag_ns.Quantile(0.5) / 1e3, r.cost_per_tick,
                 static_cast<long long>(r.failed));
    if (options.trace) {
      // Only the latest traced round keeps its spans.
      for (RoundResult& older : traced) older.span_logs.clear();
      traced.push_back(std::move(r));
    } else {
      untraced.push_back(std::move(r));
    }
    double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (failed > 0) break;
    if (round + 1 >= min_rounds && elapsed >= args.seconds) break;
  }

  if (args.trace && !traced.empty() && !args.trace_dir.empty()) {
    const RoundResult& last = traced.back();
    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : last.span_logs) logs.push_back(&log);
    std::string path = args.trace_dir + "/" + spec->name + "-seed" +
                       std::to_string(args.seed) + ".trace.json";
    if (WriteChromeTrace(path, logs, last.span_threads)) {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
    }
  }

  std::vector<Metric> metrics = args.trace
                                    ? PerLayer(traced, untraced, clock_pair_ns)
                                    : EndToEnd(untraced);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  PrintMetrics(metrics);
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
