// FlightRecorder: an armed recorder turns failures into evidence. The
// core test forces a scenario-checker failure (via the runner's
// inject_containment_skew fault hook) and asserts the dump file exists,
// is seq-ordered, reports the drop counter, and carries a COMPLETE span
// tree — every span closed, every parent link resolvable. The storm test
// drives NoteRejectedInput across the threshold.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "scenario/scenario.h"
#include "scenario/scenario_runner.h"

namespace apc {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string contents;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  return contents;
}

struct DumpLine {
  uint64_t seq = 0;
  uint64_t op = 0;
  uint32_t span = 0;
  uint32_t parent = 0;
  uint32_t tid = 0;
  std::string event;
  int32_t id = 0;
  int64_t now = 0;
  int64_t arg = 0;
};

// Parses the documented dump format: header lines prefixed '#', then one
// event per line as `seq op span parent tid event id now arg`.
std::vector<DumpLine> ParseDump(const std::string& contents,
                                std::vector<std::string>* header) {
  std::vector<DumpLine> lines;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      header->push_back(line);
      continue;
    }
    std::istringstream fields(line);
    DumpLine rec;
    fields >> rec.seq >> rec.op >> rec.span >> rec.parent >> rec.tid >>
        rec.event >> rec.id >> rec.now >> rec.arg;
    EXPECT_FALSE(fields.fail()) << "malformed dump line: " << line;
    lines.push_back(rec);
  }
  return lines;
}

bool HeaderHas(const std::vector<std::string>& header,
               const std::string& needle) {
  for (const std::string& line : header) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

// A forced checker failure while armed must produce a dump whose events
// are seq-ordered and whose span layer forms complete trees: every
// span_begin has its span_end, every tagged record's span exists, and
// every nonzero parent names another span of the same operation.
TEST(FlightRecorderTest, CheckerFailureDumpsOrderedCompleteSpanTree) {
  obs::TraceRecorder::Reset();
  obs::FlightRecorder::SetDumpDir(testing::TempDir());
  // kFull: the dump carries the per-read root spans, so the tree check
  // below covers the whole taxonomy, not just the low-frequency kinds.
  obs::FlightRecorder::Arm(/*ring_capacity=*/1 << 15,
                           obs::TraceLevel::kFull);

  ScenarioConfig config;
  config.kind = ScenarioKind::kFlashCrowd;
  config.num_sources = 16;
  config.ticks = 40;
  config.reads_per_tick = 4;
  config.seed = 7;
  ScenarioScript script = BuildScenario(config);
  ASSERT_TRUE(script.IsValid());

  ScenarioRunOptions options;
  options.num_shards = 1;  // lockstep: the dump is exact, not best-effort
  // Shift the checker's ground truth far outside every shipped bound:
  // deterministic containment failures with a perfectly healthy engine.
  options.inject_containment_skew = 1e9;
  ScenarioMetrics metrics =
      RunScenario(script, PolicyKind::kAdaptive, options);
  EXPECT_GT(metrics.containment_failures, 0);

  std::string path = obs::FlightRecorder::last_dump_path();
  obs::FlightRecorder::Disarm();
  ASSERT_FALSE(path.empty());
  std::string contents = ReadWholeFile(path);
  ASSERT_FALSE(contents.empty());
  std::remove(path.c_str());

  std::vector<std::string> header;
  std::vector<DumpLine> lines = ParseDump(contents, &header);
  EXPECT_TRUE(HeaderHas(header, "# reason: read containment failure"));
  EXPECT_TRUE(HeaderHas(header, "# level: full"));
  EXPECT_TRUE(HeaderHas(header, "# trace_dropped:"));
  EXPECT_TRUE(HeaderHas(header,
                        "# columns: seq op span parent tid event id now arg"));
  ASSERT_FALSE(lines.empty());

  // Strict global seq order.
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_LT(lines[i - 1].seq, lines[i].seq);
  }

  // Span-tree completeness. The run quiesced before the dump and the ring
  // is larger than the event count, so no begin/end was overwritten.
  std::set<std::pair<uint64_t, uint32_t>> begins;
  std::set<std::pair<uint64_t, uint32_t>> ends;
  std::map<uint64_t, std::set<uint32_t>> spans_of_op;
  bool saw_read_root = false;
  for (const DumpLine& rec : lines) {
    if (rec.event == "span_begin") {
      EXPECT_TRUE(begins.insert({rec.op, rec.span}).second)
          << "duplicate span " << rec.op << ":" << rec.span;
      spans_of_op[rec.op].insert(rec.span);
      if (rec.arg == static_cast<int64_t>(obs::SpanKind::kPointRead) ||
          rec.arg == static_cast<int64_t>(obs::SpanKind::kQuery)) {
        saw_read_root = true;
      }
    } else if (rec.event == "span_end") {
      ends.insert({rec.op, rec.span});
    }
  }
  EXPECT_EQ(begins, ends);  // every span closed, no orphan ends
  EXPECT_TRUE(saw_read_root);
  for (const DumpLine& rec : lines) {
    if (rec.op == 0) continue;  // outside any span
    const std::set<uint32_t>& spans = spans_of_op[rec.op];
    EXPECT_TRUE(spans.count(rec.span) > 0)
        << rec.event << " tagged with unknown span " << rec.op << ":"
        << rec.span;
    if (rec.parent != 0) {
      EXPECT_TRUE(spans.count(rec.parent) > 0)
          << rec.event << " parent " << rec.parent << " missing in op "
          << rec.op;
    }
  }
  obs::TraceRecorder::Reset();
}

TEST(FlightRecorderTest, DumpOnFailureRequiresArming) {
  obs::TraceRecorder::Reset();
  EXPECT_FALSE(obs::FlightRecorder::armed());
  EXPECT_EQ(obs::FlightRecorder::DumpOnFailure("not armed"), "");
  obs::FlightRecorder::Arm(1 << 10);
  EXPECT_TRUE(obs::FlightRecorder::armed());
  EXPECT_EQ(obs::TraceRecorder::level(), obs::TraceLevel::kFlight);
  obs::FlightRecorder::Disarm();
  EXPECT_FALSE(obs::FlightRecorder::armed());
  obs::TraceRecorder::Reset();
}

// kStormThreshold rejected inputs while armed trigger exactly one dump,
// with the storm reason and the rejected_input events retained.
TEST(FlightRecorderTest, RejectedInputStormDumpsOnce) {
  obs::TraceRecorder::Reset();
  obs::FlightRecorder::SetDumpDir(testing::TempDir());
  obs::FlightRecorder::Arm(/*ring_capacity=*/1 << 12);
  std::string before = obs::FlightRecorder::last_dump_path();
  for (int64_t i = 0; i < obs::FlightRecorder::kStormThreshold; ++i) {
    obs::FlightRecorder::NoteRejectedInput("bad update", /*id=*/-7,
                                           /*now=*/i);
  }
  std::string path = obs::FlightRecorder::last_dump_path();
  obs::FlightRecorder::Disarm();
  // The process-wide rejection tally crossed exactly one multiple of the
  // threshold during the loop, so exactly one fresh dump appeared.
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path, before);
  std::string contents = ReadWholeFile(path);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("rejected-input storm (bad update)"),
            std::string::npos);
  EXPECT_NE(contents.find("rejected_input"), std::string::npos);
  obs::TraceRecorder::Reset();
}

}  // namespace
}  // namespace apc
