#include "runtime/update_bus.h"

#include <thread>
#include <utility>

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

UpdateBus::UpdateBus(size_t capacity, size_t num_rings, Combiner combiner)
    : capacity_(capacity == 0 ? 1 : capacity),
      combiner_(std::move(combiner)) {
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
      WakeProducers();
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
  bool acquired;
  if (broadcast) {
    acquired = AcquireBroadcastCredits(static_cast<int64_t>(n), blocking);
  } else if (blocking) {
    acquired = AcquireCredits(rings_[ring_index], static_cast<int64_t>(n));
  } else {
    acquired = !closed_.load(std::memory_order_acquire) &&
               TryAcquireCredits(rings_[ring_index], static_cast<int64_t>(n));
  }
  if (!acquired) return false;
  if (broadcast) {
    for (Ring& ring : rings_) WriteRange(ring, events, n);
  } else {
    WriteRange(rings_[ring_index], events, n);
  }
  total_pushed_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);

  enqueued_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  int64_t depth = static_cast<int64_t>(size());
  queue_depth_.Set(depth);
  for (size_t i = 0; i < n; ++i) {
    obs::TraceRecorder::Record(obs::TraceEvent::kBusEnqueue,
                               events[i].source_id, events[i].now, depth);
  }

  // Store-buffering pair with StartCombining (publish, fence, read the
  // flag vs. set the flag, fence, drain): at least one side sees the
  // other's store, so an event published while Start runs is applied.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!combining_.load(std::memory_order_relaxed)) return true;
  if (broadcast) {
    for (size_t r = 0; r < rings_.size(); ++r) {
      combiner_(r, rings_[r].tail.load(std::memory_order_relaxed));
    }
  } else {
    combiner_(ring_index,
              rings_[ring_index].tail.load(std::memory_order_relaxed));
  }
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

size_t UpdateBus::DrainPublished(Ring& ring, std::vector<UpdateEvent>* out,
                                 size_t max_batch) {
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  size_t n = 0;
  while (n < max_batch) {
    Cell& cell = ring.cells[(head + n) & ring.mask];
    // seq == position+1 marks "published"; the drain stops at the first
    // unpublished cell, so a mid-reservation producer only delays its own
    // suffix, never reorders anything.
    if (cell.seq.load(std::memory_order_acquire) != head + n + 1) break;
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

size_t UpdateBus::DrainRing(size_t ring_index, std::vector<UpdateEvent>* out,
                            size_t max_batch, uint64_t until) {
  out->clear();
  if (max_batch == 0) return 0;
  Ring& ring = rings_[ring_index];
  size_t n;
  while ((n = DrainPublished(ring, out, max_batch)) == 0) {
    if (ring.head.load(std::memory_order_relaxed) >= until) return 0;
    // A reservation below `until` is mid-publish by a producer holding no
    // lock: it lands within a few of that producer's instructions.
    std::this_thread::yield();
  }
  drained_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  drain_batches_.fetch_add(1, std::memory_order_relaxed);
  drain_batch_size_.Record(static_cast<double>(n));
  queue_depth_.Set(static_cast<int64_t>(size()));
  obs::TraceRecorder::Record(obs::TraceEvent::kBusDrainBatch, /*id=*/-1,
                             out->back().now, static_cast<int64_t>(n));
  WakeProducers();
  return n;
}

bool UpdateBus::StartCombining() {
  if (!combiner_ || closed()) return false;
  combining_.store(true, std::memory_order_seq_cst);
  // The other half of PushRun's store-buffering pair: flag, fence, drain.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  CombineAll();
  return true;
}

void UpdateBus::CombineAll() {
  for (size_t r = 0; r < rings_.size(); ++r) combiner_(r, 0);
}

void UpdateBus::WakeProducers() {
  // The visit orders this notify after any waiter's locked re-check: the
  // waiter either saw the new state or is already inside Wait.
  { MutexLock lock(mu_); }
  not_full_.NotifyAll();
}

void UpdateBus::Close() {
  closed_.store(true, std::memory_order_seq_cst);
  WakeProducers();
  if (combining()) CombineAll();
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
