#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {
namespace obs {

const char* TraceEventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::kReadStart:
      return "read_start";
    case TraceEvent::kSeqlockRetry:
      return "seqlock_retry";
    case TraceEvent::kSharedFallback:
      return "shared_fallback";
    case TraceEvent::kEscalateRegional:
      return "escalate_regional";
    case TraceEvent::kEscalateSource:
      return "escalate_source";
    case TraceEvent::kBusEnqueue:
      return "bus_enqueue";
    case TraceEvent::kBusDrainBatch:
      return "bus_drain_batch";
    case TraceEvent::kOfferApplied:
      return "offer_applied";
    case TraceEvent::kOfferChargedLost:
      return "offer_charged_lost";
    case TraceEvent::kNotifyEvaluate:
      return "notify_evaluate";
    case TraceEvent::kNotifyShip:
      return "notify_ship";
    case TraceEvent::kSpanBegin:
      return "span_begin";
    case TraceEvent::kSpanEnd:
      return "span_end";
    case TraceEvent::kRejectedInput:
      return "rejected_input";
  }
  return "unknown";
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPointRead:
      return "point_read";
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kTieredRead:
      return "tiered_read";
    case SpanKind::kTick:
      return "tick";
    case SpanKind::kNotifyBatch:
      return "notify_batch";
    case SpanKind::kNotifyEval:
      return "notify_eval";
    case SpanKind::kEscalateRegional:
      return "escalate_regional";
    case SpanKind::kEscalateSource:
      return "escalate_source";
    case SpanKind::kSourcePull:
      return "source_pull";
    case SpanKind::kFanOut:
      return "fan_out";
  }
  return "unknown";
}

namespace {

/// One thread's ring: written by its owner only (no synchronization — the
/// quiesced-only dump contract), retained in the global registry past the
/// thread's exit so DumpTrace still sees its tail.
struct Ring {
  explicit Ring(size_t capacity) : slots(capacity) {}
  std::vector<TraceRecord> slots;
  size_t head = 0;       // next write position
  uint64_t written = 0;  // lifetime total (>= slots.size() once wrapped)
  uint32_t tid = 0;
};

struct Registry {
  /// Top of the rank order: ring registration is a leaf (first trace event
  /// on a thread, Enable/Reset/Dump from quiesced tests) and never takes
  /// another lock while held.
  Mutex mu{LockRank::kObsTrace, "obs.trace.mu"};
  std::vector<std::unique_ptr<Ring>> rings APC_GUARDED_BY(mu);
  size_t ring_capacity APC_GUARDED_BY(mu) = 4096;
  uint32_t next_tid APC_GUARDED_BY(mu) = 0;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all threads
  return *registry;
}

/// A counter alone on its cache line. Every record bumps g_seq and every
/// root span g_op, on every recording thread; sharing a line with the
/// level byte or g_generation, which every trace site and record reads,
/// cost each thread a coherence miss per site whenever another thread
/// recorded.
struct alignas(64) LineCounter {
  std::atomic<uint64_t> value{0};
};
LineCounter g_seq;
/// Operation (span tree) ids; 0 is reserved for "no operation".
LineCounter g_op;
/// Bumped by Enable/Reset so cached thread_local ring pointers from a
/// previous generation are re-registered instead of dangling.
std::atomic<uint64_t> g_generation{0};

/// Monotonic ring-overwrite tally (the obs.trace_dropped counter): leaked
/// like the registry so late-exiting threads can still bump it.
Counter& DroppedCounter() {
  static Counter* dropped = new Counter();
  return *dropped;
}

Ring* ThisThreadRing() {
  thread_local Ring* ring = nullptr;
  thread_local uint64_t ring_generation = ~uint64_t{0};
  uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (ring == nullptr || ring_generation != generation) {
    Registry& registry = GlobalRegistry();
    MutexLock lock(registry.mu);
    auto owned = std::make_unique<Ring>(registry.ring_capacity);
    owned->tid = registry.next_tid++;
    ring = owned.get();
    registry.rings.push_back(std::move(owned));
    ring_generation = generation;
  }
  return ring;
}

}  // namespace

void TraceRecorder::Enable(size_t ring_capacity, TraceLevel level) {
  Registry& registry = GlobalRegistry();
  {
    MutexLock lock(registry.mu);
    registry.rings.clear();
    registry.ring_capacity = ring_capacity < 1 ? 1 : ring_capacity;
    registry.next_tid = 0;
  }
  g_seq.value.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
  internal::g_trace_level.store(static_cast<uint8_t>(level),
                                std::memory_order_release);
}

void TraceRecorder::Disable() {
  internal::g_trace_level.store(0, std::memory_order_release);
}

void TraceRecorder::SetLevel(TraceLevel level) {
  uint8_t requested = static_cast<uint8_t>(level);
  uint8_t current = internal::g_trace_level.load(std::memory_order_relaxed);
  while (current < requested &&
         !internal::g_trace_level.compare_exchange_weak(
             current, requested, std::memory_order_release,
             std::memory_order_relaxed)) {
  }
}

void TraceRecorder::RecordImpl(TraceEvent event, int32_t id, int64_t now,
                               int64_t arg) {
  Ring* ring = ThisThreadRing();
  if (ring->written >= ring->slots.size()) {
    DroppedCounter().fetch_add(1, std::memory_order_relaxed);
  }
  const internal::TraceContext& ctx = internal::t_trace_context;
  TraceRecord& slot = ring->slots[ring->head];
  slot.seq = g_seq.value.fetch_add(1, std::memory_order_relaxed);
  slot.op = ctx.op;
  slot.now = now;
  slot.arg = arg;
  slot.span = ctx.span;
  slot.parent = ctx.parent;
  slot.id = id;
  slot.tid = ring->tid;
  slot.event = event;
  ring->head = (ring->head + 1) % ring->slots.size();
  ++ring->written;
}

std::vector<TraceRecord> TraceRecorder::DumpTrace() {
  Registry& registry = GlobalRegistry();
  std::vector<TraceRecord> out;
  {
    MutexLock lock(registry.mu);
    for (const auto& ring : registry.rings) {
      size_t capacity = ring->slots.size();
      size_t retained = ring->written < capacity
                            ? static_cast<size_t>(ring->written)
                            : capacity;
      // Oldest retained slot: head when wrapped, 0 otherwise.
      size_t start = ring->written < capacity ? 0 : ring->head;
      for (size_t i = 0; i < retained; ++i) {
        out.push_back(ring->slots[(start + i) % capacity]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

void TraceRecorder::Reset() {
  Registry& registry = GlobalRegistry();
  {
    MutexLock lock(registry.mu);
    registry.rings.clear();
    registry.next_tid = 0;
  }
  g_seq.value.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
}

int64_t TraceRecorder::dropped() {
  return DroppedCounter().load(std::memory_order_relaxed);
}

void TraceRecorder::RegisterMetrics(MetricsRegistry* registry) {
  registry->RegisterCounter("obs.trace_dropped", &DroppedCounter());
}

void TraceScope::Enter() {
  internal::TraceContext& ctx = internal::t_trace_context;
  saved_op_ = ctx.op;
  saved_span_ = ctx.span;
  saved_parent_ = ctx.parent;
  if (ctx.op == 0) {
    // Root of a new operation tree. +1 keeps 0 reserved.
    ctx.op = g_op.value.fetch_add(1, std::memory_order_relaxed) + 1;
    ctx.next_span = 1;
    ctx.span = 1;
    ctx.parent = 0;
  } else {
    ctx.parent = ctx.span;
    ctx.span = ++ctx.next_span;
  }
  active_ = true;
  TraceRecorder::RecordImpl(TraceEvent::kSpanBegin, id_, now_,
                            static_cast<int64_t>(kind_));
}

void TraceScope::Exit() {
  internal::TraceContext& ctx = internal::t_trace_context;
  TraceRecorder::RecordImpl(TraceEvent::kSpanEnd, id_, now_,
                            static_cast<int64_t>(kind_));
  // Restore the enclosing node but NOT next_span: a later sibling must
  // draw a fresh span id, not collide with this subtree's. Leaving the
  // root zeroes op, so the next root starts a new tree (and re-seeds
  // next_span itself).
  ctx.op = saved_op_;
  ctx.span = saved_span_;
  ctx.parent = saved_parent_;
}

}  // namespace obs
}  // namespace apc
