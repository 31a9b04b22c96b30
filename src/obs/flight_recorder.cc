#include "obs/flight_recorder.h"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <vector>

#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {
namespace obs {

namespace {

struct State {
  /// Control state of the recorder. Rank kObsFlight: DumpOnFailure runs
  /// under engine/queue locks (checker hooks, storm notes) and then takes
  /// the trace registry lock (kObsTrace, higher) for the dump itself.
  Mutex mu{LockRank::kObsFlight, "obs.flight.mu"};
  TraceLevel level APC_GUARDED_BY(mu) = TraceLevel::kFlight;
  std::string dump_dir APC_GUARDED_BY(mu) = ".";
  std::string last_dump APC_GUARDED_BY(mu);
  int64_t dump_count APC_GUARDED_BY(mu) = 0;
};

State& GlobalState() {
  static State* state = new State();  // leaked: outlives all threads
  return *state;
}

/// Lock-free armed check so NoteRejectedInput costs one relaxed load when
/// the recorder is off (rejection sites sit inside shard locks).
std::atomic<bool> g_armed{false};
std::atomic<int64_t> g_rejections{0};

/// Reentrancy guard: a dump that re-enters the validator (or a storm note
/// fired while dumping) must not recurse into another dump.
thread_local bool t_in_dump = false;

const char* LevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff:
      return "off";
    case TraceLevel::kFlight:
      return "flight";
    case TraceLevel::kFull:
      return "full";
  }
  return "unknown";
}

void LockOrderHook(const char* reason) {
  FlightRecorder::DumpOnFailure(reason);
}

}  // namespace

void FlightRecorder::Arm(size_t ring_capacity, TraceLevel level) {
  if (level == TraceLevel::kOff) level = TraceLevel::kFlight;
  {
    State& state = GlobalState();
    MutexLock lock(state.mu);
    state.level = level;
  }
  TraceRecorder::Enable(ring_capacity, level);
  g_armed.store(true, std::memory_order_release);
  SetLockOrderAbortHook(&LockOrderHook);
}

void FlightRecorder::Disarm() {
  SetLockOrderAbortHook(nullptr);
  g_armed.store(false, std::memory_order_release);
  TraceRecorder::Disable();
}

bool FlightRecorder::armed() {
  return g_armed.load(std::memory_order_acquire);
}

void FlightRecorder::SetDumpDir(const std::string& dir) {
  State& state = GlobalState();
  MutexLock lock(state.mu);
  state.dump_dir = dir.empty() ? "." : dir;
}

std::string FlightRecorder::DumpOnFailure(const std::string& reason) {
  if (t_in_dump || !armed()) return "";
  t_in_dump = true;
  // Stop NEW records so the rings hold still for the read below (a thread
  // already inside RecordImpl may still finish its slot — the best-effort
  // contract in the header).
  TraceRecorder::Disable();
  std::vector<TraceRecord> records = TraceRecorder::DumpTrace();

  State& state = GlobalState();
  std::string path;
  TraceLevel restore_level = TraceLevel::kFlight;
  {
    MutexLock lock(state.mu);
    restore_level = state.level;
    char name[128];
    std::snprintf(name, sizeof(name), "/apc_flight_%lld_%lld.txt",
                  static_cast<long long>(std::time(nullptr)),
                  static_cast<long long>(state.dump_count++));
    path = state.dump_dir + name;
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    std::fprintf(f, "# apcache flight recorder dump\n");
    std::fprintf(f, "# reason: %s\n", reason.c_str());
    std::fprintf(f, "# unix_time: %lld\n",
                 static_cast<long long>(std::time(nullptr)));
    std::fprintf(f, "# level: %s\n", LevelName(restore_level));
    std::fprintf(f, "# events: %zu\n", records.size());
    std::fprintf(f, "# trace_dropped: %lld\n",
                 static_cast<long long>(TraceRecorder::dropped()));
    std::fprintf(f, "# columns: seq op span parent tid event id now arg\n");
    for (const TraceRecord& rec : records) {
      std::fprintf(f, "%llu %llu %u %u %u %s %d %lld %lld\n",
                   static_cast<unsigned long long>(rec.seq),
                   static_cast<unsigned long long>(rec.op), rec.span,
                   rec.parent, rec.tid, TraceEventName(rec.event), rec.id,
                   static_cast<long long>(rec.now),
                   static_cast<long long>(rec.arg));
    }
    ok = std::fclose(f) == 0 && ok;
  }

  if (ok) {
    MutexLock lock(state.mu);
    state.last_dump = path;
  }
  // Resume recording at the armed level — the recorder stays always-on
  // past a dump (later failures in the same process still get evidence).
  TraceRecorder::SetLevel(restore_level);
  t_in_dump = false;
  return ok ? path : "";
}

std::string FlightRecorder::last_dump_path() {
  State& state = GlobalState();
  MutexLock lock(state.mu);
  return state.last_dump;
}

void FlightRecorder::NoteRejectedInput(const char* what, int32_t id,
                                       int64_t now) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  int64_t n = g_rejections.fetch_add(1, std::memory_order_relaxed) + 1;
  TraceRecorder::Record(TraceEvent::kRejectedInput, id, now, n);
  if (n % kStormThreshold != 0) return;
  std::string reason = "rejected-input storm (";
  reason += what;
  reason += ")";
  DumpOnFailure(reason);
}

}  // namespace obs
}  // namespace apc
