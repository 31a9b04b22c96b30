#ifndef APC_OBS_FLIGHT_RECORDER_H_
#define APC_OBS_FLIGHT_RECORDER_H_

// Always-on crash-dump flight recorder over the per-thread trace rings:
// Arm() keeps low-cost recording live (TraceLevel::kFlight by default —
// the configuration the BENCH_obs ≤5% gate covers), and DumpOnFailure()
// writes the last N seq-ordered events — spans included — to a timestamped
// file when something goes wrong, so concurrency heisenbugs arrive with
// evidence attached.
//
// Dump triggers wired in this repo:
//  * scenario-runner checker failures (violations, containment, hull,
//    ordering) — one dump per run, at the first failing check;
//  * lock-order validator aborts (Arm installs the abort hook);
//  * rejected-input storms: every kStormThreshold-th rejected update/read
//    noted via NoteRejectedInput while armed.
//
// Concurrency contract: DumpOnFailure first drops the recording level so
// no NEW records start, but a thread mid-RecordImpl can still be writing
// its ring — the dump is a best-effort diagnostic read, exact whenever the
// failing path is the only recording thread (the lockstep scenario runs
// the dump test uses), approximate under full concurrency. A thread_local
// guard makes it safe to call from the lock-order abort hook even when the
// dump itself re-enters the validator.

#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace apc {
namespace obs {

class FlightRecorder {
 public:
  /// Rejected inputs per armed dump: NoteRejectedInput triggers one dump
  /// each time the process-wide rejection tally crosses a multiple of
  /// this (a storm of malformed input is a failure worth evidence).
  static constexpr int64_t kStormThreshold = 64;

  /// Arms the recorder: enables trace recording at `level` (rings of
  /// `ring_capacity` events per thread) and installs the lock-order abort
  /// hook. kFlight skips per-read records and is the ≤5%-overhead
  /// configuration; harnesses that need complete per-operation span trees
  /// in their dumps (the scenario runner's forced-failure test) arm kFull.
  /// Quiesced-only, like TraceRecorder::Enable.
  static void Arm(size_t ring_capacity = 1 << 14,
                  TraceLevel level = TraceLevel::kFlight);

  /// Disables recording and uninstalls the abort hook. Quiesced-only.
  static void Disarm();

  static bool armed();

  /// Directory dumps are written into (default "."). Applies to the next
  /// dump.
  static void SetDumpDir(const std::string& dir);

  /// Dumps every retained event, seq-ordered, to
  /// `<dump_dir>/apc_flight_<unixtime>_<n>.txt` with a header carrying
  /// `reason`, the armed level, and the obs.trace_dropped total; recording
  /// resumes at the armed level afterwards. Returns the path, or "" when
  /// not armed, re-entered, or the file could not be written.
  static std::string DumpOnFailure(const std::string& reason);

  /// Path of the most recent successful dump ("" when none).
  static std::string last_dump_path();

  /// Counts one rejected input (malformed update/read/frame); every
  /// kStormThreshold-th note while armed dumps once with a storm reason.
  static void NoteRejectedInput(const char* what, int32_t id, int64_t now);
};

}  // namespace obs
}  // namespace apc

#endif  // APC_OBS_FLIGHT_RECORDER_H_
