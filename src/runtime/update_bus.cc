#include "runtime/update_bus.h"

#include <utility>

#include "obs/trace.h"

namespace apc {

UpdateBus::UpdateBus(size_t num_shards, ApplyFn apply)
    : num_shards_(num_shards == 0 ? 1 : num_shards), apply_(std::move(apply)) {}

void UpdateBus::RegisterMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  registry->RegisterCounter(prefix + ".enqueued", &enqueued_);
  registry->RegisterCounter(prefix + ".drained", &drained_);
  registry->RegisterCounter(prefix + ".drain_batches", &drain_batches_);
  registry->RegisterHistogram(prefix + ".drain_batch_size",
                              &drain_batch_size_);
}

void UpdateBus::ApplyOn(size_t shard, const UpdateEvent* events, size_t n) {
  drained_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  drain_batches_.fetch_add(1, std::memory_order_relaxed);
  drain_batch_size_.Record(static_cast<double>(n));
  obs::TraceRecorder::Record(obs::TraceEvent::kBusDrainBatch, /*id=*/-1,
                             events[n - 1].now, static_cast<int64_t>(n));
  apply_(shard, events, n);
}

size_t UpdateBus::PushBatch(const UpdateEvent* events, size_t count) {
  size_t i = 0;
  while (i < count) {
    if (closed()) break;
    // Maximal same-destination run.
    const bool broadcast = IsBroadcast(events[i]);
    const size_t shard = broadcast ? 0 : ShardOf(events[i]);
    size_t j = i + 1;
    while (j < count && IsBroadcast(events[j]) == broadcast &&
           (broadcast || ShardOf(events[j]) == shard)) {
      ++j;
    }
    const UpdateEvent* run = events + i;
    const size_t n = j - i;
    enqueued_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    for (size_t k = 0; k < n; ++k) {
      obs::TraceRecorder::Record(obs::TraceEvent::kBusEnqueue,
                                 run[k].source_id, run[k].now);
    }
    if (broadcast) {
      for (size_t s = 0; s < num_shards_; ++s) ApplyOn(s, run, n);
    } else {
      ApplyOn(shard, run, n);
    }
    i = j;
  }
  return i;
}

}  // namespace apc
