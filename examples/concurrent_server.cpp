// Concurrent serving demo: the adaptive-precision protocol under load.
//
// A fleet of 64 "sensors" (random walks) feeds a 4-shard runtime engine.
// An updater thread pushes sensor updates through the UpdateBus, applying
// each burst on its own thread, while four client threads issue
// precision-bounded aggregate queries and point reads concurrently. Each client's precision constraint is honored no matter how
// the threads interleave, and the per-value adaptive width policy keeps
// tuning itself to minimize refresh cost — exactly the paper's protocol,
// now multiplexed across threads.
//
// Build & run:  ./build/examples/concurrent_server
#include <cstdio>

#include "core/adaptive_policy.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

int main() {
  using namespace apc;

  // 1. The environment: 64 sensor values, each a random walk, each owning
  //    an instance of the adaptive precision policy (alpha = 1).
  constexpr int kSensors = 64;
  AdaptivePolicyParams policy;
  policy.alpha = 1.0;
  auto sources = BuildRandomWalkSources(kSensors, RandomWalkParams{}, policy,
                                        /*seed=*/42);

  // 2. The runtime: sources hash-partitioned across 4 lock-guarded shards
  //    sharing a cache of capacity 48 (so some values stay uncached and
  //    queries must pull them exactly).
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 48;
  config.seed = 42;
  ShardedEngine engine(config, std::move(sources));

  std::printf("partition: ");
  for (size_t count : engine.ShardSourceCounts()) {
    std::printf("%zu ", count);
  }
  std::printf("sensors across %d shards\n", engine.num_shards());

  // 3. The load: 4 closed-loop client threads, 5000 queries each — a mix of
  //    bounded SUMs over 10 sensors, bounded MAX/MIN, and point reads —
  //    racing an updater that pushes sensor ticks through the UpdateBus and
  //    applies them itself, shard by shard.
  DriverConfig driver;
  driver.num_threads = 4;
  driver.queries_per_thread = 5000;
  driver.workload.num_sources = kSensors;
  driver.workload.group_size = 10;
  driver.workload.max_fraction = 0.25;
  driver.workload.min_fraction = 0.25;
  driver.workload.constraints.avg = 20.0;
  driver.workload.constraints.rho = 1.0;
  driver.point_read_fraction = 0.25;
  driver.run_updates = true;
  driver.seed = 7;
  DriverReport report = RunWorkload(engine, driver);

  // 4. What happened.
  std::printf("\nserved %lld queries in %.3f s  (%.0f queries/s)\n",
              static_cast<long long>(report.queries), report.wall_seconds,
              report.queries_per_second);
  std::printf("latency: p50 %.1f us   p95 %.1f us   p99 %.1f us\n",
              report.latency_p50_us, report.latency_p95_us,
              report.latency_p99_us);
  std::printf("precision violations: %lld (the protocol guarantees 0)\n",
              static_cast<long long>(report.violations));
  std::printf("sensor ticks streamed through the bus: %lld\n",
              static_cast<long long>(report.ticks));
  std::printf("refreshes: %lld value-initiated, %lld query-initiated "
              "(cost %.0f, %.2f per tick)\n",
              static_cast<long long>(report.costs.value_refreshes),
              static_cast<long long>(report.costs.query_refreshes),
              report.costs.total_cost, report.costs.CostRate());
  std::printf("mean retained width after the run: %.3g\n",
              engine.MeanRawWidth());
  return report.violations == 0 ? 0 : 1;
}
