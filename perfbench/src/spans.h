#ifndef APC_PERFBENCH_SPANS_H_
#define APC_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of two back-to-back NowNs() calls — the floor under every
/// timed operation, reported so a reader can subtract it.
double MeasureClockPairNs();

/// Span names recorded at the benchmark's call sites into the engines.
enum class SpanName : uint8_t {
  kEpoch,        // producer: one logical-clock epoch (root)
  kPush,         // producer: UpdateBus::PushBatch of one tick
  kApplyWait,    // producer: PushBatch returned -> updates_applied reached
  kPointRead,    // reader: PointRead / TieredEngine::Read
  kAggSumAvg,    // reader: SUM/AVG aggregate
  kAggMaxMin,    // reader: MAX/MIN aggregate
  kNotifyPop,    // drainer: one NotificationHub::PopBatch that returned data
};
const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// The epoch (logical tick) the span belongs to; epoch spans are the
  /// parents of every other span with the same tick.
  int64_t tick = 0;
  SpanName name = SpanName::kEpoch;
};

/// One thread's in-memory span buffer. Bounded: once `cap` spans are held,
/// further spans are not stored, so a long traced run cannot grow without
/// limit. Not thread-safe (one per thread).
class SpanLog {
 public:
  explicit SpanLog(size_t cap = 0) : cap_(cap) { spans_.reserve(cap); }
  void Add(SpanName name, int64_t tick, int64_t start_ns, int64_t end_ns) {
    if (spans_.size() < cap_) spans_.push_back({start_ns, end_ns, tick, name});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t cap_;
  std::vector<Span> spans_;
};

/// Writes the logs as Chrome trace-event JSON (one tid per log, times in
/// microseconds from the earliest span). Returns false when the file
/// cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const std::vector<std::string>& thread_names);

}  // namespace perfbench

#endif  // APC_PERFBENCH_SPANS_H_
