#include "data/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace apc {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(TraceIoTest, RoundTrip) {
  Trace trace;
  trace.hosts = {{1.5, 2.5, 3.5}, {10.0, 20.0, 30.0}};
  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveTraceCsv(trace, path).ok());

  auto loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().hosts, trace.hosts);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, SaveToUnwritablePathFails) {
  Trace trace;
  trace.hosts = {{1.0}};
  Status s = SaveTraceCsv(trace, "/nonexistent-dir/x.csv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST_F(TraceIoTest, LoadMissingFileFails) {
  auto r = LoadTraceCsv("/nonexistent-dir/missing.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(TraceIoTest, LoadEmptyFileIsInvalidArgument) {
  std::string path = TempPath("empty.csv");
  std::ofstream(path).close();
  auto r = LoadTraceCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, LoadRaggedRowsIsCorruption) {
  std::string path = TempPath("ragged.csv");
  {
    std::ofstream out(path);
    out << "1,2,3\n1,2\n";
  }
  auto r = LoadTraceCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// A field must be wholly one finite number: strtod alone would load
// "nan" and the infinities as non-finite values, and "1.5abc" as 1.5.
TEST_F(TraceIoTest, LoadNonNumericIsCorruption) {
  std::string path = TempPath("alpha.csv");
  for (const char* bad : {"abc", "nan", "inf", "-infinity", "1.5abc"}) {
    {
      std::ofstream out(path);
      out << "1,2\n3," << bad << "\n";
    }
    auto r = LoadTraceCsv(path);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << bad;
    EXPECT_NE(r.status().message().find("line 2"), std::string::npos) << bad;
  }
  std::remove(path.c_str());
}

// Blank lines are skipped, and a CRLF line end is trailing whitespace.
TEST_F(TraceIoTest, SkipsBlankLines) {
  std::string path = TempPath("blank.csv");
  {
    std::ofstream out(path);
    out << "1,2\n\n3,4\r\n";
  }
  auto r = LoadTraceCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_hosts(), 2u);
  EXPECT_EQ(r.value().duration(), 2u);
  EXPECT_EQ(r.value().hosts[1][1], 4.0);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, GeneratedTraceSurvivesRoundTrip) {
  TrafficTraceParams params;
  params.num_hosts = 3;
  params.duration_seconds = 120;
  Trace trace = GenerateTrafficTrace(params, 9);
  std::string path = TempPath("generated.csv");
  ASSERT_TRUE(SaveTraceCsv(trace, path).ok());
  auto r = LoadTraceCsv(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_hosts(), trace.num_hosts());
  // CSV stores decimal text; allow tiny rounding differences.
  for (size_t h = 0; h < trace.num_hosts(); ++h) {
    for (size_t t = 0; t < trace.duration(); ++t) {
      EXPECT_NEAR(r.value().hosts[h][t], trace.hosts[h][t],
                  1e-4 * (1.0 + trace.hosts[h][t]));
    }
  }
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, WritesParsableDimensionHeader) {
  Trace trace;
  trace.hosts = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  std::string path = TempPath("header.csv");
  ASSERT_TRUE(SaveTraceCsv(trace, path).ok());
  {
    std::ifstream in(path);
    std::string first_line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, first_line)));
    EXPECT_EQ(first_line.rfind(kTraceCsvMagic, 0), 0u) << first_line;
    EXPECT_NE(first_line.find("hosts=2"), std::string::npos);
    EXPECT_NE(first_line.find("duration=3"), std::string::npos);
  }
  auto r = LoadTraceCsv(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().hosts, trace.hosts);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, SavedValuesRoundTripBitForBit) {
  // max_digits10 text must reproduce doubles exactly, including values
  // with no finite decimal expansion.
  Trace trace;
  trace.hosts = {{1.0 / 3.0, 2.0 / 7.0}, {1e-300, 12345.678901234567}};
  std::string path = TempPath("bits.csv");
  ASSERT_TRUE(SaveTraceCsv(trace, path).ok());
  auto r = LoadTraceCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().hosts, trace.hosts);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, TruncationAgainstHeaderIsCorruption) {
  std::string path = TempPath("truncated.csv");
  {
    std::ofstream out(path);
    out << kTraceCsvMagic << " hosts=2 duration=4\n1,2\n3,4\n";
  }
  auto r = LoadTraceCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, MalformedHeaderIsCorruption) {
  std::string path = TempPath("badheader.csv");
  {
    std::ofstream out(path);
    out << kTraceCsvMagic << " hosts=two\n1,2\n";
  }
  auto r = LoadTraceCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, HeaderAfterFirstLineIsCorruption) {
  std::string path = TempPath("lateheader.csv");
  {
    std::ofstream out(path);
    out << "1,2\n" << kTraceCsvMagic << " hosts=1 duration=2\n";
  }
  auto r = LoadTraceCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, NonHeaderCommentLinesAreSkipped) {
  std::string path = TempPath("comments.csv");
  {
    std::ofstream out(path);
    out << "# a stray annotation\n1,2\n# mid-file note\n3,4\n";
  }
  auto r = LoadTraceCsv(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_hosts(), 2u);
  EXPECT_EQ(r.value().duration(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apc
