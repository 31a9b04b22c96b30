#ifndef APC_OBS_EXPORTER_H_
#define APC_OBS_EXPORTER_H_

// Snapshot exporter: serializes one consistent MetricsRegistry snapshot to
// JSON — on demand (ToJson/WriteFile) or on a background interval
// (StartBackground) — following the bench/bench_report conventions
// (escaped keys, %.10g numbers, a schema tag) so the same tooling that
// reads the BENCH_*.json trajectories can read live engine snapshots.
//
// Consistency contract: every serialized histogram's "count" equals the
// sum of its serialized bins (the snapshot derives one from the other), and
// all values in one document come from a single TakeSnapshot pass.

#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {
namespace obs {

class AttributionTable;

class SnapshotExporter {
 public:
  /// `registry` must outlive the exporter (and its background thread).
  explicit SnapshotExporter(const MetricsRegistry* registry);
  ~SnapshotExporter();

  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  /// Attaches the engines' cost-attribution table (non-owning; nullptr
  /// detaches): every subsequent document carries an "attribution" section
  /// with the per-source Cvr/Cqr splits, reader buckets, and width
  /// time-series. Attach before concurrent use (StartBackground); the
  /// table must outlive the exporter. Without an attachment the section
  /// is absent, which apcache-obs-v1 permits.
  void AttachAttribution(const AttributionTable* attribution) {
    attribution_ = attribution;
  }

  /// One consistent snapshot as a JSON document.
  std::string ToJson() const;

  /// Writes ToJson() (plus a trailing newline) to `path`.
  bool WriteFile(const std::string& path) const;

  /// Starts a background thread rewriting `path` every `interval_ms`
  /// (clamped to >= 1). No-op if already running.
  void StartBackground(const std::string& path, int64_t interval_ms);

  /// Stops the background thread (idempotent; called by the destructor).
  void Stop();

  /// Background snapshots written so far (for tests).
  int64_t exports_written() const;

 private:
  void BackgroundLoop();

  const MetricsRegistry* const registry_;
  /// Set before concurrent use, read by every ToJson; non-owning.
  const AttributionTable* attribution_ = nullptr;

  /// Ranked below the registry: the exporter never snapshots while holding
  /// mu_ (WriteFile runs unlocked), but a control thread may configure the
  /// exporter and then register metrics, so kObsExporter < kObsRegistry.
  mutable Mutex mu_{LockRank::kObsExporter, "obs.exporter.mu"};
  CondVar cv_;
  std::string path_ APC_GUARDED_BY(mu_);
  int64_t interval_ms_ APC_GUARDED_BY(mu_) = 0;
  int64_t exports_written_ APC_GUARDED_BY(mu_) = 0;
  bool running_ APC_GUARDED_BY(mu_) = false;
  bool stop_ APC_GUARDED_BY(mu_) = false;
  /// Managed by StartBackground/Stop only; Stop joins after observing
  /// running_ under mu_, so the handle itself needs no guard.
  std::thread worker_;
};

}  // namespace obs
}  // namespace apc

#endif  // APC_OBS_EXPORTER_H_
