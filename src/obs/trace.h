#ifndef APC_OBS_TRACE_H_
#define APC_OBS_TRACE_H_

// Query-lifecycle trace recorder: a process-wide, off-by-default stream of
// typed events covering one request's path through the runtime — the read
// fast path and its seqlock fallbacks, tier escalation hops, bus traffic,
// the core's offer outcomes, and notification evaluation/shipping — plus
// the causal span layer that stitches those events into per-operation
// trees (see TraceScope below and obs/chrome_trace.h for the export).
//
// Recording is per-thread: each recording thread owns a fixed-size ring of
// the newest events (oldest overwritten on wrap, each overwrite counted in
// the obs.trace_dropped counter), stamped from one global sequence
// counter; DumpTrace stitches the rings into a single seq-ordered stream.
//
// Levels (the cost dial):
//   kOff    — default. Record is one relaxed byte load and a branch.
//   kFlight — the flight-recorder setting: control-plane events only
//             (retries, fallbacks, drain batches, charged-lost pushes,
//             notify decisions, rejections, and the tick and notify
//             spans). Everything that happens per read or per refresh —
//             kReadStart, the read roots, escalation hops, source pulls
//             and fan-outs — is skipped, which is what keeps an armed
//             flight recorder inside the BENCH_obs ≤5% overhead gate.
//   kFull   — everything, including one record + one span per read. The
//             on-demand debugging mode; its cost is persisted in
//             BENCH_obs.json as "steady_traced" but not gated.
//
// DumpTrace/Reset are QUIESCED-ONLY: callers must ensure no thread is
// concurrently recording (join or otherwise synchronize with the workload
// first) — rings are written without synchronization by design.

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace apc {
namespace obs {

enum class TraceLevel : uint8_t {
  kOff = 0,
  kFlight = 1,
  kFull = 2,
};

enum class TraceEvent : uint8_t {
  kReadStart,         // id = source (kFull only)
  kSeqlockRetry,      // id = source whose optimistic read tore
  kSharedFallback,    // id = source (or -1 for a batch), arg = torn count
  kEscalateRegional,  // id = source escalating edge -> regional (kFull)
  kEscalateSource,    // id = source escalating regional -> source (kFull)
  kBusEnqueue,        // id = source accepted by the bus (kFull only)
  kBusDrainBatch,     // id = -1, arg = events of a run applied to a shard
  kOfferApplied,      // id = refreshed source (kFull only)
  kOfferChargedLost,  // id = source charged for a push lost in transit
  kNotifyEvaluate,    // id = -1, arg = sub id being re-evaluated
  kNotifyShip,        // id = -1, arg = sub id, now = compute tick
  kSpanBegin,         // arg = SpanKind; op/span/parent identify the node
  kSpanEnd,           // arg = SpanKind; same op/span as the begin
  kRejectedInput,     // id = offending id, arg = process rejection total
};

/// The span taxonomy: every node in an operation's tree is one of these
/// (carried in the arg of kSpanBegin/kSpanEnd). The per-read roots, the
/// escalation hops, kSourcePull and kFanOut run at data-plane frequency
/// (a third of the edge reads of a tiered_geo-shaped workload escalate)
/// and record at kFull only; kTick and the notify spans run once per
/// shard burst or evaluation and record at kFlight.
enum class SpanKind : uint8_t {
  kPointRead = 0,   // TieredEngine::PointRead (root), id = source
  kQuery,           // TieredEngine::ExecuteQuery (root), id = -1
  kTieredRead,      // TieredEngine::Read (root), id = source, arg n/a
  kTick,            // value-initiated refresh cascade of one tick (root)
  kNotifyBatch,     // one notifier ProcessBatch (root), id = -1
  kNotifyEval,      // one subscription evaluation, id = -1
  kEscalateRegional,  // tiered edge -> regional hop, id = source
  kEscalateSource,    // tiered regional -> source hop, id = source
  kSourcePull,      // exact pull against the source, id = source
  kFanOut,          // derived LAN fan-out: of one id (id = source), or of
                    // a tick pass's collected refreshes, edge by edge
                    // (id = -1)
};

const char* TraceEventName(TraceEvent event);
const char* SpanKindName(SpanKind kind);

/// Minimum level at which `event` records. constexpr so the check in
/// Record folds to a constant compare for the (universal) constant-event
/// call sites: the kOff cost stays one relaxed byte load and one branch.
/// kFlight is the armed-flight-recorder level, so it keeps only the
/// control-plane evidence (retries, fallbacks, drain batches, loss,
/// notify decisions, rejections) and drops the per-operation data plane —
/// records per read (kReadStart, escalations) and per streamed update
/// (kBusEnqueue/kOfferApplied) — whose volume is what the ≤5% overhead
/// bound cannot absorb.
constexpr TraceLevel MinLevel(TraceEvent event) {
  return (event == TraceEvent::kReadStart ||
          event == TraceEvent::kEscalateRegional ||
          event == TraceEvent::kEscalateSource ||
          event == TraceEvent::kBusEnqueue ||
          event == TraceEvent::kOfferApplied)
             ? TraceLevel::kFull
             : TraceLevel::kFlight;
}
constexpr TraceLevel MinLevel(SpanKind kind) {
  return (kind == SpanKind::kTick || kind == SpanKind::kNotifyBatch ||
          kind == SpanKind::kNotifyEval)
             ? TraceLevel::kFlight
             : TraceLevel::kFull;
}

struct TraceRecord {
  uint64_t seq = 0;  // global order across all threads
  uint64_t op = 0;   // operation (span tree) id; 0 = outside any span
  int64_t now = 0;   // logical tick at the event
  int64_t arg = 0;   // event-specific payload (see TraceEvent)
  uint32_t span = 0;    // span id within op; 0 = none
  uint32_t parent = 0;  // parent span id within op; 0 = root
  int32_t id = -1;   // source id, or -1
  uint32_t tid = 0;  // recorder-assigned thread index
  TraceEvent event = TraceEvent::kReadStart;
};

namespace internal {
/// The process-wide recording level. Lives in the header as a C++17 inline
/// variable so Record's disabled fast path — one relaxed byte load and a
/// branch — inlines into every call site instead of paying a function
/// call on hot paths that are almost never traced.
inline std::atomic<uint8_t> g_trace_level{0};

/// Ambient per-thread span context, stamped into every record. op == 0
/// means the thread is outside any span (records are point events).
struct TraceContext {
  uint64_t op = 0;
  uint32_t span = 0;
  uint32_t parent = 0;
  uint32_t next_span = 0;  // highest span id handed out within op
};
inline thread_local TraceContext t_trace_context;
}  // namespace internal

class TraceRecorder {
 public:
  /// Turns recording on at `level`; each thread's ring holds the newest
  /// `ring_capacity` of its events. Quiesced-only (drops prior rings).
  static void Enable(size_t ring_capacity = 4096,
                     TraceLevel level = TraceLevel::kFull);
  static void Disable();
  static bool enabled() {
    return internal::g_trace_level.load(std::memory_order_relaxed) != 0;
  }
  static TraceLevel level() {
    return static_cast<TraceLevel>(
        internal::g_trace_level.load(std::memory_order_relaxed));
  }
  /// Raises (never lowers) the live level without touching the rings.
  static void SetLevel(TraceLevel level);

  /// Appends one event to the calling thread's ring, stamped with the
  /// ambient span context. One inlined relaxed load and return when the
  /// level is below the event's MinLevel.
  static void Record(TraceEvent event, int32_t id, int64_t now,
                     int64_t arg = 0) {
    if (internal::g_trace_level.load(std::memory_order_relaxed) <
        static_cast<uint8_t>(MinLevel(event))) {
      return;
    }
    RecordImpl(event, id, now, arg);
  }

  /// All retained events across all rings, sorted by seq (oldest first).
  /// Quiesced-only.
  static std::vector<TraceRecord> DumpTrace();

  /// Drops every ring and restarts the sequence counter. Quiesced-only.
  static void Reset();

  /// Ring overwrites since process start (monotonic — the obs counter
  /// convention): every event that displaced an older retained event.
  static int64_t dropped();
  /// Registers the process-wide drop tally as "obs.trace_dropped" with
  /// `registry` (non-owning; the counter is static and never dies).
  static void RegisterMetrics(MetricsRegistry* registry);

 private:
  friend class TraceScope;
  static void RecordImpl(TraceEvent event, int32_t id, int64_t now,
                         int64_t arg);
};

/// RAII span: entering opens a node in the calling thread's operation tree
/// (allocating a fresh operation id when none is ambient), records
/// kSpanBegin, and stamps every Record made inside with (op, span,
/// parent); leaving records kSpanEnd and restores the enclosing node.
/// Inert — no records, no context mutation — when the live level is below
/// the kind's MinLevel, so at kFlight the retries and fallbacks inside a
/// skipped per-read root record as point events of their own.
class TraceScope {
 public:
  TraceScope(SpanKind kind, int32_t id, int64_t now)
      : kind_(kind), id_(id), now_(now) {
    if (internal::g_trace_level.load(std::memory_order_relaxed) <
        static_cast<uint8_t>(MinLevel(kind))) {
      return;
    }
    Enter();
  }
  ~TraceScope() {
    if (active_) Exit();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  void Enter();
  void Exit();

  const SpanKind kind_;
  const int32_t id_;
  const int64_t now_;
  bool active_ = false;
  uint64_t saved_op_ = 0;
  uint32_t saved_span_ = 0;
  uint32_t saved_parent_ = 0;
};

}  // namespace obs
}  // namespace apc

#endif  // APC_OBS_TRACE_H_
