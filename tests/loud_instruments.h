// Every instrument of the obs layer, live at once on one engine — the
// "loud" arm of the lockstep parity harnesses in runtime_test.cc and
// tiered_engine_test.cc. Each harness runs its seeded workload twice in
// one process, quiet (recorder disabled, no attribution table) and loud,
// and asserts both runs answer and charge bit for bit alike: the
// instruments observe the protocol and never steer it.
#ifndef APC_TESTS_LOUD_INSTRUMENTS_H_
#define APC_TESTS_LOUD_INSTRUMENTS_H_

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "obs/attribution.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/tiered_engine.h"

namespace apc {

/// For its lifetime: the flight recorder armed at kFull, an attribution
/// table attached to `engine`, and a background exporter snapshotting the
/// engine's registry every millisecond. Construct before the first
/// charge; `engine` must outlive this object.
class LoudInstruments {
 public:
  LoudInstruments(TieredEngine& engine, std::string export_path)
      : engine_(engine),
        exporter_(&engine.metrics()),
        export_path_(std::move(export_path)) {
    obs::FlightRecorder::Arm(/*ring_capacity=*/1 << 12,
                             obs::TraceLevel::kFull);
    engine_.SetAttribution(&attribution_);
    exporter_.AttachAttribution(&attribution_);
    exporter_.StartBackground(export_path_, /*interval_ms=*/1);
    // Live before the first tick; bounded so a failing write cannot hang.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (exporter_.exports_written() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  ~LoudInstruments() {
    exporter_.Stop();
    engine_.SetAttribution(nullptr);
    obs::FlightRecorder::Disarm();
    obs::TraceRecorder::Reset();
    std::remove(export_path_.c_str());
  }
  LoudInstruments(const LoudInstruments&) = delete;
  LoudInstruments& operator=(const LoudInstruments&) = delete;

  /// The instruments really watched the run: snapshots exported, charges
  /// attributed, records retained. Call from the only recording thread.
  void ExpectObserved() const {
    EXPECT_GT(exporter_.exports_written(), 0);
    EXPECT_GT(attribution_.TotalsSnapshot().value_refreshes, 0);
    EXPECT_FALSE(obs::TraceRecorder::DumpTrace().empty());
  }

 private:
  TieredEngine& engine_;
  obs::AttributionTable attribution_;
  obs::SnapshotExporter exporter_;
  const std::string export_path_;
};

}  // namespace apc

#endif  // APC_TESTS_LOUD_INSTRUMENTS_H_
