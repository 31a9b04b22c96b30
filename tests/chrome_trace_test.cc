// ChromeTraceExporter: dumped TraceRecord streams render as Chrome
// trace-event JSON (Perfetto / chrome://tracing). ToJson is a pure
// function of the record vector; the golden tests below pin its output,
// and the live-capture test asserts the real recorder + engine pipeline.
#include "obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

namespace apc {
namespace {

obs::TraceRecord Rec(uint64_t seq, uint64_t op, uint32_t span,
                     uint32_t parent, obs::TraceEvent event, int32_t id,
                     int64_t now, int64_t arg) {
  obs::TraceRecord rec;
  rec.seq = seq;
  rec.op = op;
  rec.span = span;
  rec.parent = parent;
  rec.event = event;
  rec.id = id;
  rec.now = now;
  rec.arg = arg;
  rec.tid = 0;
  return rec;
}

// The exact document for one span wrapping one instant event — byte for
// byte, so any schema drift (key rename, arg reorder) fails loudly.
TEST(ChromeTraceTest, GoldenSpanWithInstantEvent) {
  std::vector<obs::TraceRecord> records;
  records.push_back(Rec(1, 1, 1, 0, obs::TraceEvent::kSpanBegin, -1, 5,
                        static_cast<int64_t>(obs::SpanKind::kQuery)));
  records.push_back(
      Rec(2, 1, 1, 0, obs::TraceEvent::kOfferApplied, 7, 5, 0));
  records.push_back(Rec(3, 1, 1, 0, obs::TraceEvent::kSpanEnd, -1, 5,
                        static_cast<int64_t>(obs::SpanKind::kQuery)));
  // The instant event streams out when encountered; the complete ("X")
  // span event is emitted at its end record, stamped with the BEGIN's
  // seq as ts and the seq delta as dur.
  EXPECT_EQ(obs::ChromeTraceExporter::ToJson(records),
            "{\"traceEvents\":[\n"
            "{\"name\":\"offer_applied\",\"cat\":\"event\",\"ph\":\"i\","
            "\"ts\":2,\"s\":\"t\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"op\":1,\"span\":1,\"parent\":0,\"id\":7,"
            "\"now\":5,\"arg\":0}},\n"
            "{\"name\":\"query\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1,"
            "\"dur\":2,\"pid\":1,\"tid\":0,"
            "\"args\":{\"op\":1,\"span\":1,\"parent\":0,\"id\":-1,"
            "\"now\":5,\"arg\":1}}\n"
            "]}");
}

TEST(ChromeTraceTest, EmptyDumpYieldsValidEmptyDocument) {
  EXPECT_EQ(obs::ChromeTraceExporter::ToJson({}),
            "{\"traceEvents\":[\n\n]}");
}

// A begin with no end (the span was still open at dump time) renders with
// a duration running to the captured window's last seq; an end with no
// begin (its begin was overwritten in the ring) is dropped.
TEST(ChromeTraceTest, UnmatchedSpansFollowTheRingContract) {
  std::vector<obs::TraceRecord> records;
  records.push_back(Rec(10, 3, 1, 0, obs::TraceEvent::kSpanBegin, 4, 9,
                        static_cast<int64_t>(obs::SpanKind::kSourcePull)));
  records.push_back(Rec(11, 2, 5, 1, obs::TraceEvent::kSpanEnd, 8, 9,
                        static_cast<int64_t>(obs::SpanKind::kFanOut)));
  records.push_back(
      Rec(14, 0, 0, 0, obs::TraceEvent::kSeqlockRetry, 2, 9, 0));
  std::string json = obs::ChromeTraceExporter::ToJson(records);
  // Open span: runs from its begin (ts 10) to the last seq (14).
  EXPECT_NE(json.find("\"name\":\"source_pull\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10,\"dur\":4"), std::string::npos);
  // Orphaned end: dropped entirely.
  EXPECT_EQ(json.find("fan_out"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"seqlock_retry\""), std::string::npos);
}

// Nested spans keep their causal identity in args: the child names its
// parent span id within the same op, which is what lets a UI (or the
// flight-recorder test) rebuild the operation tree.
TEST(ChromeTraceTest, NestedSpansCarryParentLinks) {
  std::vector<obs::TraceRecord> records;
  records.push_back(Rec(1, 9, 1, 0, obs::TraceEvent::kSpanBegin, -1, 3,
                        static_cast<int64_t>(obs::SpanKind::kNotifyBatch)));
  records.push_back(Rec(2, 9, 2, 1, obs::TraceEvent::kSpanBegin, -1, 3,
                        static_cast<int64_t>(obs::SpanKind::kNotifyEval)));
  records.push_back(Rec(3, 9, 2, 1, obs::TraceEvent::kSpanEnd, -1, 3,
                        static_cast<int64_t>(obs::SpanKind::kNotifyEval)));
  records.push_back(Rec(4, 9, 1, 0, obs::TraceEvent::kSpanEnd, -1, 3,
                        static_cast<int64_t>(obs::SpanKind::kNotifyBatch)));
  std::string json = obs::ChromeTraceExporter::ToJson(records);
  EXPECT_NE(json.find("\"name\":\"notify_eval\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"notify_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"op\":9,\"span\":2,\"parent\":1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"op\":9,\"span\":1,\"parent\":0,"),
            std::string::npos);
}

TEST(ChromeTraceTest, WriteFileEmitsDocumentWithTrailingNewline) {
  std::string path =
      testing::TempDir() + "apcache_chrome_trace_test.json";
  std::vector<obs::TraceRecord> records;
  records.push_back(
      Rec(1, 0, 0, 0, obs::TraceEvent::kBusEnqueue, 3, 1, 2));
  ASSERT_TRUE(obs::ChromeTraceExporter::WriteFile(path, records));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[256];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, obs::ChromeTraceExporter::ToJson(records) + "\n");
}

// End-to-end: a real engine workload captured at kFull exports a document
// carrying the per-read root spans and their instant children.
TEST(ChromeTraceTest, LiveCaptureExportsReadSpans) {
  obs::TraceRecorder::Reset();
  obs::TraceRecorder::Enable(/*ring_capacity=*/1 << 14,
                             obs::TraceLevel::kFull);
  {
    EngineConfig config;
    config.num_shards = 2;
    config.system.cache_capacity = 16;
    config.seed = 99;
    ShardedEngine engine(
        config, BuildRandomWalkSources(16, RandomWalkParams{},
                                       AdaptivePolicyParams{}, 99));
    engine.PopulateInitial(0);
    for (int64_t now = 1; now <= 20; ++now) engine.TickAll(now);
    for (int id = 0; id < 16; ++id) engine.PointRead(id, 0.0, 21);
    Query query;
    query.kind = AggregateKind::kSum;
    query.source_ids = {0, 1, 2, 3};
    query.constraint = 0.0;
    engine.ExecuteQuery(query, 22);
  }
  obs::TraceRecorder::Disable();
  std::string json =
      obs::ChromeTraceExporter::ToJson(obs::TraceRecorder::DumpTrace());
  obs::TraceRecorder::Reset();
  EXPECT_NE(json.find("\"name\":\"point_read\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  // Exact pulls nest under their read root: at least one span names a
  // nonzero parent.
  EXPECT_NE(json.find("\"name\":\"source_pull\""), std::string::npos);
}

}  // namespace
}  // namespace apc
