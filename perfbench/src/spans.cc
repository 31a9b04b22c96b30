#include "spans.h"

#include <algorithm>
#include <limits>

namespace perfbench {

double MeasureClockPairNs() {
  constexpr int kBatches = 31;
  constexpr int kPairs = 4096;
  std::vector<double> per_batch;
  per_batch.reserve(kBatches);
  int64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    int64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
      int64_t t0 = NowNs();
      int64_t t1 = NowNs();
      total += t1 - t0;
      sink ^= t1;
    }
    per_batch.push_back(static_cast<double>(total) / kPairs);
  }
  std::nth_element(per_batch.begin(), per_batch.begin() + kBatches / 2,
                   per_batch.end());
  // Keep the loop observable so the compiler cannot drop the clock reads.
  if (sink == std::numeric_limits<int64_t>::min()) std::fputc(' ', stderr);
  return per_batch[kBatches / 2];
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kEpoch: return "epoch";
    case SpanName::kPush: return "bus.push";
    case SpanName::kApplyWait: return "bus.apply_wait";
    case SpanName::kPointRead: return "read.point";
    case SpanName::kAggSumAvg: return "query.sum_avg";
    case SpanName::kAggMaxMin: return "query.max_min";
    case SpanName::kNotifyPop: return "subs.pop";
  }
  return "unknown";
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const std::vector<std::string>& thread_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid,
                 tid < thread_names.size() ? thread_names[tid].c_str() : "");
    first = false;
    for (const Span& s : logs[tid]->spans()) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"tick\":%lld}}",
                   SpanNameString(s.name), tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.tick));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
