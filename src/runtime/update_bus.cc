#include "runtime/update_bus.h"

#include <thread>

#include "obs/trace.h"

namespace apc {

UpdateBus::Ring::Ring(size_t logical_capacity) {
  size_t physical = 1;
  while (physical < logical_capacity) physical <<= 1;
  cells = std::make_unique<Cell[]>(physical);
  mask = physical - 1;
  // Cell i starts free for position i: seq == position marks "recycled,
  // ready for the producer that reserved this position".
  for (size_t i = 0; i < physical; ++i) {
    cells[i].seq.store(i, std::memory_order_relaxed);
  }
  credits.store(static_cast<int64_t>(logical_capacity),
                std::memory_order_relaxed);
}

UpdateBus::UpdateBus(size_t capacity, size_t num_rings)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (num_rings == 0) num_rings = 1;
  for (size_t i = 0; i < num_rings; ++i) rings_.emplace_back(capacity_);
}

void UpdateBus::RegisterMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  registry->RegisterCounter(prefix + ".enqueued", &enqueued_);
  registry->RegisterCounter(prefix + ".drained", &drained_);
  registry->RegisterCounter(prefix + ".drain_batches", &drain_batches_);
  registry->RegisterGauge(prefix + ".queue_depth", &queue_depth_);
  registry->RegisterHistogram(prefix + ".drain_batch_size",
                              &drain_batch_size_);
}

bool UpdateBus::TryAcquireCredits(Ring& ring, int64_t n) {
  int64_t current = ring.credits.load(std::memory_order_relaxed);
  while (current >= n) {
    // Acquire on success: synchronizes with the consumer's release credit
    // return, making the recycled cells visible before we write them.
    if (ring.credits.compare_exchange_weak(current, current - n,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool UpdateBus::AcquireCredits(Ring& ring, int64_t n) {
  if (closed_.load(std::memory_order_acquire)) return false;
  if (TryAcquireCredits(ring, n)) return true;
  MutexLock lock(mu_);
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (TryAcquireCredits(ring, n)) return true;
    not_full_.Wait(mu_);
  }
}

bool UpdateBus::AcquireBroadcastCredits(int64_t n, bool blocking) {
  for (size_t r = 0; r < rings_.size(); ++r) {
    bool ok = blocking ? AcquireCredits(rings_[r], n)
                       : (!closed_.load(std::memory_order_acquire) &&
                          TryAcquireCredits(rings_[r], n));
    if (!ok) {
      for (size_t i = 0; i < r; ++i) {
        rings_[i].credits.fetch_add(n, std::memory_order_release);
      }
      Wake(not_full_);
      return false;
    }
  }
  return true;
}

void UpdateBus::WriteRange(Ring& ring, const UpdateEvent* events, size_t n) {
  // THE batch reservation: one fetch_add claims n contiguous positions for
  // this producer, however many producers are racing.
  uint64_t pos = ring.tail.fetch_add(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    Cell& cell = ring.cells[(pos + i) & ring.mask];
    // An acquired credit guarantees the cell is already recycled (credits
    // are returned only after recycling, and the consumer recycles in
    // order); the spin is a correctness backstop that never iterates.
    while (cell.seq.load(std::memory_order_acquire) != pos + i) {
      std::this_thread::yield();
    }
    cell.event = events[i];
    cell.seq.store(pos + i + 1, std::memory_order_release);
  }
}

bool UpdateBus::PushRun(const UpdateEvent* events, size_t n, bool broadcast,
                        size_t ring_index, bool blocking) {
  // pending_pushes_ must cover the whole accept window (seq_cst pairs with
  // the consumer's shutdown check): once a producer passes the closed_
  // gate, the consumer cannot conclude "drained" until the events are
  // published.
  pending_pushes_.fetch_add(1, std::memory_order_seq_cst);
  bool acquired;
  if (broadcast) {
    acquired = AcquireBroadcastCredits(static_cast<int64_t>(n), blocking);
  } else if (blocking) {
    acquired = AcquireCredits(rings_[ring_index], static_cast<int64_t>(n));
  } else {
    acquired = !closed_.load(std::memory_order_seq_cst) &&
               TryAcquireCredits(rings_[ring_index], static_cast<int64_t>(n));
  }
  if (!acquired) {
    pending_pushes_.fetch_sub(1, std::memory_order_seq_cst);
    // A consumer draining a closed bus waits for pending_pushes_ to reach
    // zero, so a failed push wakes it as a publish does.
    Wake(not_empty_);
    return false;
  }
  if (broadcast) {
    for (Ring& ring : rings_) WriteRange(ring, events, n);
  } else {
    WriteRange(rings_[ring_index], events, n);
  }
  total_pushed_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  pending_pushes_.fetch_sub(1, std::memory_order_seq_cst);

  enqueued_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  int64_t depth = static_cast<int64_t>(size());
  queue_depth_.Set(depth);
  for (size_t i = 0; i < n; ++i) {
    obs::TraceRecorder::Record(obs::TraceEvent::kBusEnqueue,
                               events[i].source_id, events[i].now, depth);
  }
  Wake(not_empty_);
  return true;
}

bool UpdateBus::Push(const UpdateEvent& event) {
  bool broadcast = IsBroadcast(event);
  size_t ring = broadcast ? 0 : RingOf(event.source_id);
  return PushRun(&event, 1, broadcast, ring, /*blocking=*/true);
}

bool UpdateBus::TryPush(const UpdateEvent& event) {
  bool broadcast = IsBroadcast(event);
  size_t ring = broadcast ? 0 : RingOf(event.source_id);
  return PushRun(&event, 1, broadcast, ring, /*blocking=*/false);
}

size_t UpdateBus::PushBatch(const UpdateEvent* events, size_t count) {
  size_t accepted = 0;
  size_t i = 0;
  while (i < count) {
    // Maximal same-destination run, chunked to the per-ring capacity so a
    // single reservation can always be satisfied.
    bool broadcast = IsBroadcast(events[i]);
    size_t ring = broadcast ? 0 : RingOf(events[i].source_id);
    size_t j = i + 1;
    while (j < count && j - i < capacity_ &&
           IsBroadcast(events[j]) == broadcast &&
           (broadcast || RingOf(events[j].source_id) == ring)) {
      ++j;
    }
    size_t n = j - i;
    if (!PushRun(events + i, n, broadcast, ring, /*blocking=*/true)) break;
    accepted += n;
    i = j;
  }
  return accepted;
}

size_t UpdateBus::DrainRing(Ring& ring, std::vector<UpdateEvent>* out,
                            size_t max_batch) {
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  size_t n = 0;
  while (n < max_batch) {
    Cell& cell = ring.cells[(head + n) & ring.mask];
    // seq == position+1 marks "published"; the drain stops at the first
    // unpublished cell, so a mid-reservation producer only delays its own
    // suffix, never reorders anything.
    if (cell.seq.load(std::memory_order_acquire) !=
        head + n + 1) {
      break;
    }
    out->push_back(cell.event);
    ++n;
  }
  if (n == 0) return 0;
  for (size_t i = 0; i < n; ++i) {
    Cell& cell = ring.cells[(head + i) & ring.mask];
    cell.seq.store(head + i + ring.mask + 1, std::memory_order_release);
  }
  ring.head.store(head + n, std::memory_order_release);
  ring.credits.fetch_add(static_cast<int64_t>(n), std::memory_order_release);
  return n;
}

size_t UpdateBus::PopBatch(std::vector<UpdateEvent>* out, size_t max_batch,
                           size_t* source_ring) {
  out->clear();
  if (max_batch == 0) return 0;
  for (;;) {
    for (size_t k = 0; k < rings_.size(); ++k) {
      size_t r = (next_ring_ + k) % rings_.size();
      size_t n = DrainRing(rings_[r], out, max_batch);
      if (n == 0) continue;
      next_ring_ = (r + 1) % rings_.size();
      if (source_ring != nullptr) *source_ring = r;
      drained_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
      drain_batches_.fetch_add(1, std::memory_order_relaxed);
      drain_batch_size_.Record(static_cast<double>(n));
      queue_depth_.Set(static_cast<int64_t>(size()));
      obs::TraceRecorder::Record(obs::TraceEvent::kBusDrainBatch, /*id=*/-1,
                                 out->back().now, static_cast<int64_t>(n));
      Wake(not_full_);
      return n;
    }
    if (closed_.load(std::memory_order_seq_cst) &&
        pending_pushes_.load(std::memory_order_seq_cst) == 0) {
      // No producer is mid-accept, so tails are final; if every ring's
      // head caught up, the backlog is truly drained. (A publish that
      // landed between the scan above and this check just loops again.)
      bool drained = true;
      for (Ring& ring : rings_) {
        if (ring.head.load(std::memory_order_acquire) !=
            ring.tail.load(std::memory_order_acquire)) {
          drained = false;
          break;
        }
      }
      if (drained) return 0;
      continue;
    }
    MutexLock lock(mu_);
    // Re-check under the parking lot before waiting. Everything that can
    // end this wait (a publish, a failed push at shutdown, Close) changes
    // its state first and then visits mu_ to notify, so it either happened
    // before this check and is seen here, or it finds this thread already
    // waiting.
    if (AnyPublished() ||
        (closed_.load(std::memory_order_seq_cst) &&
         pending_pushes_.load(std::memory_order_seq_cst) == 0)) {
      continue;
    }
    not_empty_.Wait(mu_);
  }
}

bool UpdateBus::AnyPublished() const {
  for (const Ring& ring : rings_) {
    uint64_t head = ring.head.load(std::memory_order_relaxed);
    if (ring.cells[head & ring.mask].seq.load(std::memory_order_acquire) ==
        head + 1) {
      return true;
    }
  }
  return false;
}

void UpdateBus::Wake(CondVar& cv) {
  // The visit orders this notify after any waiter's locked re-check: the
  // waiter either saw the new state or is already inside Wait.
  { MutexLock lock(mu_); }
  cv.NotifyAll();
}

void UpdateBus::Close() {
  closed_.store(true, std::memory_order_seq_cst);
  Wake(not_full_);
  Wake(not_empty_);
}

size_t UpdateBus::size() const {
  size_t total = 0;
  for (const Ring& ring : rings_) {
    uint64_t tail = ring.tail.load(std::memory_order_acquire);
    uint64_t head = ring.head.load(std::memory_order_acquire);
    if (tail > head) total += static_cast<size_t>(tail - head);
  }
  return total;
}

}  // namespace apc
