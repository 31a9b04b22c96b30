// The read hot path's allocation contract, enforced: once per-thread
// scratch buffers are warm, PointRead, ExecuteQuery (all four aggregate
// kinds), and the driver's query-generation loop perform ZERO heap
// allocations in steady state. The test swaps in counting global operator
// new/delete and asserts the measured window is allocation-free, so any
// std::stable_sort temporary buffer, by-value vector return, or per-query
// Query construction that sneaks back into the path fails loudly here
// instead of showing up as a latency regression.
//
// Run by the tier-1 suite and by scripts/check.sh --alloc (a
// release-with-asserts build, where inlining makes the zero-alloc claim
// about the real production code). Deliberately NOT in the
// tsan/asan concurrency suites: sanitizer runtimes own the allocator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
#ifdef APC_ALLOC_TEST_BACKTRACE
    void* frames[16];
    int n = backtrace(frames, 16);
    backtrace_symbols_fd(frames, n, 2);
    std::fprintf(stderr, "---- alloc of %zu bytes\n", size);
#endif
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();  // replacement new must not return null
  return p;
}

}  // namespace

// Global replacements: every operator new in the binary funnels through
// the counter. Deletes must pair with malloc above.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apc {
namespace {

/// Allocations observed while running `body` with counting enabled.
template <typename Body>
std::int64_t CountAllocations(Body&& body) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  body();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocFreeReadTest, SteadyStateReadsAllocateNothing) {
  constexpr int kSources = 24;
  EngineConfig config;
  // Every shard gets a capacity slice covering the full population: ids
  // are hash-partitioned unevenly, so a merely-equal total capacity
  // would leave some shard over-subscribed and churning evictions —
  // each eviction/re-insert pair is a map-node allocation. The
  // no-eviction steady state (the parity topology) re-offers entries in
  // place and never touches the allocator.
  config.system.cache_capacity = 3 * kSources;
  config.num_shards = 3;
  config.seed = 11;
  ShardedEngine engine(
      config, BuildRandomWalkSources(kSources, RandomWalkParams{},
                                     AdaptivePolicyParams{}, /*seed=*/11));
  engine.PopulateInitial(0);

  // The driver's query mix: every aggregate kind, uniform ids — plus a
  // second Zipf-skewed generator so both id-sampling routes are covered.
  QueryWorkloadParams workload;
  workload.num_sources = kSources;
  workload.group_size = 8;
  workload.max_fraction = 0.25;
  workload.min_fraction = 0.25;
  workload.avg_fraction = 0.25;
  QueryGenerator uniform_gen(workload, /*seed=*/21);
  workload.zipf_s = 1.1;
  QueryGenerator zipf_gen(workload, /*seed=*/22);

  // Warm-up: touches every thread-local scratch buffer (query items,
  // shard groups, selection + sort order, torn-read indices) and the
  // hoisted Query's capacity, exactly like a serving thread's first
  // requests.
  Query query;
  auto run_queries = [&](int64_t now) {
    for (QueryGenerator* gen : {&uniform_gen, &zipf_gen}) {
      for (int i = 0; i < 32; ++i) {
        gen->Next(&query);
        engine.ExecuteQuery(query, now);
        engine.PointRead(query.source_ids.front(), query.constraint, now);
      }
    }
  };
  run_queries(/*now=*/0);

  // The measured window: identical traffic, zero allocations allowed.
  std::int64_t allocations = CountAllocations([&] { run_queries(1); });
  EXPECT_EQ(allocations, 0) << "read path allocated in steady state";
}

}  // namespace
}  // namespace apc
