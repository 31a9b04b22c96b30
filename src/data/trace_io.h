#ifndef APC_DATA_TRACE_IO_H_
#define APC_DATA_TRACE_IO_H_

#include <string>

#include "data/traffic_trace.h"
#include "util/status.h"

namespace apc {

/// Header line SaveTraceCsv writes: `# apcache-trace-v1 hosts=H duration=T`.
/// Loaders use it to detect truncation (a file cut at a row boundary is
/// otherwise a perfectly rectangular, shorter trace).
extern const char kTraceCsvMagic[];

/// Writes a trace as CSV: a dimension header comment, then one row per
/// second, one column per host. Values are written with max_digits10
/// significant digits so a loaded trace reproduces the saved doubles
/// bit-for-bit — the property the trace-replay parity harness relies on.
/// Lets users export the synthetic trace or import a real one (e.g. actual
/// network monitoring data) in its place.
Status SaveTraceCsv(const Trace& trace, const std::string& path);

/// Reads a trace written by SaveTraceCsv (or any rectangular numeric CSV
/// with the same layout; the header is optional so hand-made files load
/// too). Returns Corruption on ragged rows, a field that is not wholly one
/// finite number (NaN, ±inf and "1.5abc" included), or a
/// header whose declared dimensions disagree with the rows actually
/// present (a truncated or padded file); IOError when the file cannot be
/// opened; InvalidArgument on an empty file.
Result<Trace> LoadTraceCsv(const std::string& path);

}  // namespace apc

#endif  // APC_DATA_TRACE_IO_H_
