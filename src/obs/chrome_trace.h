#ifndef APC_OBS_CHROME_TRACE_H_
#define APC_OBS_CHROME_TRACE_H_

// Chrome trace-event exporter: renders a dumped TraceRecord stream as a
// trace-event JSON document loadable in Perfetto / chrome://tracing.
//
// Mapping: each kSpanBegin/kSpanEnd pair becomes one complete ("X") event
// named after its SpanKind, and every other record becomes an instant
// ("i") event named after its TraceEvent. The logical tick `now` is far
// too coarse for a timeline, so the global seq stamp serves as the
// microsecond timestamp — one trace "microsecond" per recorded event,
// which preserves exact global ordering and nesting. Span identity
// (op/span/parent), the source id, and the logical tick ride in args.
//
// Pure functions of the record vector; an empty vector yields the valid
// empty document.

#include <string>
#include <vector>

#include "obs/trace.h"

namespace apc {
namespace obs {

class ChromeTraceExporter {
 public:
  /// `records` must be seq-sorted (DumpTrace's contract). Unmatched
  /// kSpanBegin records (still-open spans at dump time) are emitted with a
  /// duration running to the last seq; unmatched kSpanEnd records are
  /// dropped (their begin was overwritten in the ring).
  static std::string ToJson(const std::vector<TraceRecord>& records);

  /// Writes ToJson(records) plus a trailing newline to `path`.
  static bool WriteFile(const std::string& path,
                        const std::vector<TraceRecord>& records);
};

}  // namespace obs
}  // namespace apc

#endif  // APC_OBS_CHROME_TRACE_H_
