#ifndef APC_SUBSCRIBE_NOTIFICATION_HUB_H_
#define APC_SUBSCRIBE_NOTIFICATION_HUB_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/interval.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {

/// One pushed answer flowing from the subscription manager to subscriber
/// threads: the standing query's fresh answer interval, the subscription's
/// per-delivery sequence number, and the logical tick the answer was
/// computed at (delivery latency in ticks = drain-time clock − `now`).
struct Notification {
  int64_t sub_id = 0;
  Interval answer;
  /// Per-subscription epoch, starting at 1 with the registration answer
  /// and strictly increasing — records for one subscription leave the hub
  /// in epoch order, so a consumer can detect reordering or loss.
  int64_t epoch = 0;
  /// Logical tick the answer was computed at.
  int64_t now = 0;
};

/// Bounded multi-producer multi-consumer queue carrying notifications out
/// of the subscription manager to subscriber threads — the push half of
/// the standing-query protocol, mirroring the UpdateBus discipline on the
/// update half: producers (the notifier, Subscribe/Reprecision) block when
/// the hub is full, so a slow subscriber throttles notification production
/// instead of the queue growing without bound; consumers drain in batches.
///
/// Ordering: the queue is FIFO, and the manager pushes every record for a
/// subscription under one mutex in epoch order, so per-subscription records
/// leave PopBatch in strictly increasing epoch order. Close() wakes
/// everyone: producers fail fast (Push returns false) and consumers drain
/// whatever remains, then PopBatch returns 0.
class NotificationHub {
 public:
  explicit NotificationHub(size_t capacity = 1024);

  /// Enqueues `record`, blocking while the hub is full. Returns false (and
  /// drops the record) when the hub has been closed.
  bool Push(const Notification& record);

  /// Non-blocking variant: returns false when full or closed.
  bool TryPush(const Notification& record);

  /// Enqueues `count` records under ONE lock acquisition per free-capacity
  /// chunk (one total when the burst fits) instead of one per record — the
  /// batch-reservation discipline of UpdateBus::PushBatch, applied to the
  /// delivery path. Records are appended in argument order, so the FIFO /
  /// per-subscription epoch-order guarantee is exactly Push's. Blocks
  /// while full, like Push; returns how many records were accepted —
  /// `count`, or fewer when the hub closes mid-batch (the rest are
  /// dropped, like Push after Close).
  size_t PushBatch(const Notification* records, size_t count);

  /// Moves up to `max_batch` records into `*out` (cleared first). Blocks
  /// until at least one record is available or the hub is closed and
  /// drained; returns the number of records delivered (0 only at shutdown).
  size_t PopBatch(std::vector<Notification>* out, size_t max_batch);

  /// Non-blocking drain: moves up to `max_batch` records into `*out`
  /// (cleared first) and returns immediately, 0 when the hub is currently
  /// empty. For single-threaded harnesses that drain at known quiescent
  /// points (the scenario runner) instead of parking a consumer thread.
  size_t TryPopBatch(std::vector<Notification>* out, size_t max_batch);

  /// Closes the hub: subsequent pushes fail, and once the backlog drains
  /// PopBatch returns 0.
  void Close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Total records ever accepted (monotonic; for progress reporting).
  int64_t total_pushed() const;

  /// Registers this hub's traffic metrics with `registry` under
  /// "<prefix>." names: enqueued/drained counters and a queue_depth gauge.
  /// Non-owning; call before concurrent use.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix);

 private:
  const size_t capacity_;
  /// Innermost lock of the notification path: the manager pushes while
  /// holding its own mutex (rank kSubscriptionManager < kQueue) and
  /// shutdown closes under kControl; nothing is acquired under this lock.
  mutable Mutex mu_{LockRank::kQueue, "hub.mu"};
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<Notification> queue_ APC_GUARDED_BY(mu_);
  bool closed_ APC_GUARDED_BY(mu_) = false;
  int64_t total_pushed_ APC_GUARDED_BY(mu_) = 0;

  // Observability (updated under mu_, read lock-free by snapshots).
  obs::Counter enqueued_;
  obs::Counter drained_;
  obs::Gauge queue_depth_;
};

}  // namespace apc

#endif  // APC_SUBSCRIBE_NOTIFICATION_HUB_H_
