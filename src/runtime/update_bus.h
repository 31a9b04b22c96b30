#ifndef APC_RUNTIME_UPDATE_BUS_H_
#define APC_RUNTIME_UPDATE_BUS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "runtime/partition.h"

namespace apc {

/// One source-update command flowing through the bus. `source_id` of
/// kAllSources means "advance every source one tick" — the batched form of
/// the sequential simulator's global Tick. A specific id advances only that
/// source, which is how trace-driven and per-source update arrival models
/// feed the runtime.
struct UpdateEvent {
  int64_t now = 0;
  int source_id = -1;

  static constexpr int kAllSources = -1;
};

/// The runtime's asynchronous update entry point. It holds no queue: the
/// thread that pushes applies, before the push returns. A batch is split
/// into maximal same-destination runs, in order, and each run goes to the
/// owner's apply hook on the pushing thread (the engine takes that origin
/// shard's lock and applies the run under the one hold).
///
/// A specific source_id routes to shard ShardIndex(id, num_shards) — the
/// engine's own partition. A kAllSources tick is a broadcast: its run
/// reaches every shard once, in index order, each shard ticking exactly
/// its own sources. (With one shard there is nothing to broadcast to, so
/// tick-alls and single ids share runs.)
class UpdateBus {
 public:
  /// The owner's apply hook: applies `events[0, n)` to shard `shard`
  /// under that shard's lock and returns once they are applied.
  using ApplyFn =
      std::function<void(size_t shard, const UpdateEvent* events, size_t n)>;

  UpdateBus(size_t num_shards, ApplyFn apply);

  /// Applies `event` (PushBatch of one). False, and nothing applied, once
  /// the bus is closed.
  bool Push(const UpdateEvent& event) { return PushBatch(&event, 1) == 1; }

  /// Applies `events` run by run, in order, on the calling thread. Returns
  /// how many were accepted — short only when the bus closes mid-batch,
  /// and then the accepted events are exactly the applied prefix.
  /// Precondition: the caller holds no lock (the hook takes a shard lock).
  size_t PushBatch(const UpdateEvent* events, size_t count);

  /// Closes the bus: every later run is refused. A run already accepted
  /// still applies in full.
  void Close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Registers this bus's traffic metrics with `registry` under
  /// "<prefix>." names: `enqueued` (accepted events, a broadcast once),
  /// and per applied run on one shard — one shard-lock hold — `drained`
  /// (its events), `drain_batches` (one) and the `drain_batch_size`
  /// histogram. Non-owning; call during engine construction, before
  /// concurrent use.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix);

 private:
  bool IsBroadcast(const UpdateEvent& event) const {
    return event.source_id == UpdateEvent::kAllSources && num_shards_ > 1;
  }
  size_t ShardOf(const UpdateEvent& event) const {
    return runtime_internal::ShardIndex(event.source_id, num_shards_);
  }
  /// Hands one run to the hook for `shard` and records it.
  void ApplyOn(size_t shard, const UpdateEvent* events, size_t n);

  const size_t num_shards_;
  const ApplyFn apply_;

  // contracts-lint: allow(raw-atomic) -- the closed flag is read on every
  // push without a lock; it is a one-way switch, not a tally.
  std::atomic<bool> closed_{false};

  // Observability (read lock-free by snapshots).
  obs::Counter enqueued_;
  obs::Counter drained_;
  obs::Counter drain_batches_;
  obs::HistogramMetric drain_batch_size_{1.0, 4096.0, 24};
};

}  // namespace apc

#endif  // APC_RUNTIME_UPDATE_BUS_H_
