#ifndef APC_PERFBENCH_RUNNER_H_
#define APC_PERFBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "latency_histogram.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct RoundOptions {
  uint64_t seed = 1;
  int readers = 2;
  /// Time every read and record spans (a traced round) instead of timing
  /// the workload's fixed 1-in-`sample_every` subset of point reads.
  bool trace = false;
};

/// Everything one round measured: a fresh engine built from freshly
/// generated inputs, warmed up, then driven for the workload's fixed number
/// of measured ticks.
struct RoundResult {
  double setup_s = 0.0;
  double measured_s = 0.0;
  /// Reads (point reads + aggregate queries) issued in the measured epochs.
  int64_t measured_reads = 0;
  /// Checked operations (reads, ticks, notifications, end-of-round checks)
  /// over the whole round, and how many of them failed a check.
  int64_t attempted = 0;
  int64_t failed = 0;
  double cost_per_tick = 0.0;

  LatencyHistogram point_ns;
  LatencyHistogram agg_ns;
  LatencyHistogram sum_avg_ns;
  LatencyHistogram max_min_ns;
  LatencyHistogram tick_apply_ns;
  LatencyHistogram push_ns;
  LatencyHistogram notify_lag_ns;

  /// Per-layer figures derived from the engines' counters and registries
  /// over the measured period, keyed by their BENCHMARK.json names.
  std::map<std::string, double> layer;

  /// Traced rounds only: one span log per thread, and the thread names.
  std::vector<SpanLog> span_logs;
  std::vector<std::string> span_threads;
};

RoundResult RunRound(const WorkloadSpec& spec, const RoundOptions& options);

}  // namespace perfbench

#endif  // APC_PERFBENCH_RUNNER_H_
