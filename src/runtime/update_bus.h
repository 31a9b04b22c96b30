#ifndef APC_RUNTIME_UPDATE_BUS_H_
#define APC_RUNTIME_UPDATE_BUS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/partition.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

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

/// Bounded multi-producer bus carrying source updates into the runtime's
/// shards, built from per-shard ring buffers so a whole drained burst is
/// applied under ONE shard-lock acquisition.
///
/// Structure: `num_rings` bounded rings (one per shard in the engines),
/// each a power-of-two array of sequence-stamped cells. A specific
/// source_id routes to ring MixId(id) % num_rings — the engines' own
/// partition function, so ring index == shard index. A kAllSources tick
/// broadcasts one copy into EVERY ring: per-source event order must
/// include the global ticks (a source observing time move backwards would
/// corrupt its interval growth), and each shard ticks exactly its own
/// sources from its own ring.
///
/// Producer protocol (the batch-reservation pattern): acquire `n` credits
/// from the ring's credit counter (all-or-nothing, enforcing the EXACT
/// logical capacity), then reserve a contiguous range of cells with a
/// single tail.fetch_add(n) — one atomic per batch, not per event — then
/// write the cells and publish each by storing its sequence number.
/// Producers with no credits park (closed-loop backpressure); TryPush
/// fails instead. An acquired credit guarantees the target cell is already
/// recycled, so a producer never waits while holding a reservation.
///
/// Consumer protocol (flat combining: Hendler, Incze, Shavit & Tzafrir,
/// SPAA 2010): no consumer thread. Once StartCombining has run, a producer
/// applies what it published: for each ring it wrote it calls the owner's
/// Combiner with the ring's tail as read after publishing, which is at or
/// past its own reservation. The combiner holds the ring's consumer token
/// (the engine's origin shard lock) and applies DrainRing bursts until the
/// head passes that tail, other producers' events included. An earlier
/// reservation still unpublished belongs to a producer that holds no lock
/// and publishes within a few instructions, so that wait cannot deadlock.
/// Before StartCombining pushes only queue; without a combiner the bus is
/// a bounded queue its one consumer polls with DrainRing.
class UpdateBus {
 public:
  /// The owner's apply hook: under ring `ring`'s consumer token, applies
  /// DrainRing(ring, ..., until) bursts until it returns 0.
  using Combiner = std::function<void(size_t ring, uint64_t until)>;

  /// `capacity` is the per-ring logical bound (the backpressure contract);
  /// the default single ring makes the bus a drop-in bounded MPSC queue.
  explicit UpdateBus(size_t capacity = 1024, size_t num_rings = 1,
                     Combiner combiner = nullptr);

  /// Enqueues `event`, blocking while its destination ring is full (every
  /// ring, for a kAllSources broadcast). Returns false (and drops the
  /// event) when the bus has been closed. Combines as PushBatch does.
  bool Push(const UpdateEvent& event);

  /// Non-blocking variant: returns false when full or closed. A
  /// kAllSources broadcast is all-or-nothing — it fails without enqueuing
  /// anything unless every ring has room. Combines as PushBatch does.
  bool TryPush(const UpdateEvent& event);

  /// Batched blocking push: reserves each same-destination run of `events`
  /// with one credit acquisition and one tail reservation per ring
  /// (chunked to the ring capacity), preserving the events' order; when
  /// combining, applies each run on this thread before pushing the next.
  /// Returns how many events were accepted — short only when the bus
  /// closes mid-batch. Precondition: the caller holds no lock (the
  /// combiner takes a shard lock).
  size_t PushBatch(const UpdateEvent* events, size_t count);

  /// Moves up to `max_batch` published events of ring `ring` into `*out`
  /// (cleared first) and returns their count; never parks. With nothing
  /// published and the head below `until`, yields until the mid-publish
  /// reservation lands; 0 means the head reached `until` and the ring is
  /// empty. One consumer per ring at a time.
  size_t DrainRing(size_t ring, std::vector<UpdateEvent>* out,
                   size_t max_batch, uint64_t until = 0);

  /// Switches the bus to combining and drains every ring through the
  /// combiner on the caller's thread. Returns true when combining (newly
  /// or already); false, changing nothing, without a combiner or once
  /// closed.
  bool StartCombining();

  /// Closes the bus: later pushes fail, parked producers wake, and a
  /// combining bus drains what is left on the caller's thread.
  void Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  bool combining() const { return combining_.load(std::memory_order_acquire); }
  /// Events currently queued across all rings (a broadcast counts once per
  /// ring it landed in).
  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t num_rings() const { return rings_.size(); }
  /// Total events ever accepted (monotonic; broadcasts count once).
  int64_t total_pushed() const {
    return total_pushed_.load(std::memory_order_relaxed);
  }

  /// Ring carrying `source_id`'s events: MixId(id) % num_rings, the same
  /// partition the engines use for id→shard. Meaningless for kAllSources,
  /// which broadcasts.
  size_t RingOf(int source_id) const {
    return static_cast<size_t>(
        runtime_internal::MixId(static_cast<uint64_t>(source_id)) %
        rings_.size());
  }

  /// Registers this bus's traffic metrics with `registry` under
  /// "<prefix>." names: enqueued/drained/drain_batches counters, a
  /// queue_depth gauge, and a drain_batch_size histogram. Non-owning; call
  /// during engine construction, before concurrent use.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix);

 private:
  /// One ring slot. `seq` is the Vyukov sequence stamp: it equals the cell's
  /// next position when free for a producer, position+1 once published,
  /// and position+physical_capacity after the consumer recycles it.
  // contracts-lint: allow(raw-atomic) -- the sequence stamp IS the cell's
  // publication protocol (lock-free MPSC handoff), not a tally; a mutex
  // per cell would reinstate the global-lock bus this replaces.
  struct alignas(64) Cell {
    std::atomic<uint64_t> seq{0};
    UpdateEvent event;
  };

  /// One bounded ring. The cursors are cache-line-separated: producers
  /// contend on tail+credits, only the consumer touches head.
  struct alignas(64) Ring {
    explicit Ring(size_t logical_capacity);
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;

    std::unique_ptr<Cell[]> cells;
    uint64_t mask = 0;  // physical capacity (pow2) - 1
    // contracts-lint: allow(raw-atomic) -- lock-free ring cursors: tail is
    // the single-atomic batch reservation point, credits enforce the exact
    // logical capacity, head is the consumer's drain cursor. These ARE the
    // queue's synchronization, not tallies.
    alignas(64) std::atomic<uint64_t> tail{0};
    alignas(64) std::atomic<int64_t> credits{0};
    alignas(64) std::atomic<uint64_t> head{0};
  };

  bool IsBroadcast(const UpdateEvent& event) const {
    return event.source_id == UpdateEvent::kAllSources && rings_.size() > 1;
  }
  /// All-or-nothing credit grab on one ring; never blocks.
  static bool TryAcquireCredits(Ring& ring, int64_t n);
  /// Blocking credit grab; fails only when the bus closes.
  bool AcquireCredits(Ring& ring, int64_t n);
  /// Credits on EVERY ring (ascending order, deadlock-free because a
  /// consumer never waits on a parked producer); rolls back on failure.
  bool AcquireBroadcastCredits(int64_t n, bool blocking);
  /// Reserves `n` cells with one tail.fetch_add and publishes `events`.
  static void WriteRange(Ring& ring, const UpdateEvent* events, size_t n);
  /// One same-destination run: credits → reserve → publish → combine.
  bool PushRun(const UpdateEvent* events, size_t n, bool broadcast,
               size_t ring_index, bool blocking);
  /// Moves the contiguous published prefix of one ring (up to max_batch)
  /// into `*out`, recycling the cells and returning the credits.
  static size_t DrainPublished(Ring& ring, std::vector<UpdateEvent>* out,
                               size_t max_batch);
  /// Runs the combiner over every ring with no target: what is published.
  void CombineAll();
  /// Visits mu_, then wakes every waiter on not_full_: the one way the bus
  /// wakes a parked producer (see mu_ below).
  void WakeProducers();

  const size_t capacity_;  // logical per-ring bound
  std::deque<Ring> rings_;
  const Combiner combiner_;

  /// Parking lot only: producers with no credits wait here, untimed. A
  /// waiter re-checks the lock-free state under mu_ before each wait, and
  /// every state change that can end a wait visits mu_ before it
  /// notifies, so no wake-up is lost. Rank kQueue, the innermost: a
  /// combiner returns credits, visiting mu_, under its origin shard lock.
  mutable Mutex mu_{LockRank::kQueue, "bus.mu"};
  CondVar not_full_;

  // contracts-lint: allow(raw-atomic) -- close/combine handshake state read
  // on the lock-free push path: closed_ gates acceptance; combining_ is
  // one side of the publish/start store-buffering pair (seq_cst fences on
  // both sides, see StartCombining); total_pushed_ is the progress API the
  // tests and drivers poll without the parking-lot lock.
  std::atomic<bool> closed_{false};
  std::atomic<bool> combining_{false};
  std::atomic<int64_t> total_pushed_{0};

  // Observability (read lock-free by snapshots). `enqueued_` counts
  // accepted events once (a broadcast is one event); `drained_` counts
  // per-ring deliveries, so with broadcasts drained >= enqueued.
  obs::Counter enqueued_;
  obs::Counter drained_;
  obs::Counter drain_batches_;
  obs::Gauge queue_depth_;
  obs::HistogramMetric drain_batch_size_{1.0, 4096.0, 24};
};

}  // namespace apc

#endif  // APC_RUNTIME_UPDATE_BUS_H_
