#ifndef APC_OBS_METRICS_H_
#define APC_OBS_METRICS_H_

// The metrics half of the observability layer (src/obs/): named counters,
// gauges, and log-spaced histograms with striped relaxed-atomic storage —
// hot-path increments touch one cache line private to a stripe and are
// merged on read — plus a registry that hands out consistent named
// snapshots for the exporter and the benches. Counter also backs the
// engines' protocol-semantic tallies (RuntimeCounters, TieredCounters,
// SubscriptionCounters), whose accessor values tier-1 tests assert.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {
namespace obs {

namespace internal {
/// Slow path of ThreadStripeIndex: allocates the next dense index. Called
/// once per thread; indices are never reused (threads are few and
/// long-lived here).
size_t AllocateStripeIndex();

/// Biased by +1 so 0 means "unassigned": constant initialization keeps the
/// TLS access guard-free, which keeps Counter::fetch_add inlineable down
/// to a TLS load, a branch, and one relaxed RMW.
inline thread_local size_t t_stripe_plus_one = 0;

/// Small dense per-thread index used to pick a counter stripe; assigned on
/// first use.
inline size_t ThreadStripeIndex() {
  size_t biased = t_stripe_plus_one;
  if (biased == 0) {
    biased = AllocateStripeIndex() + 1;
    t_stripe_plus_one = biased;
  }
  return biased - 1;
}
}  // namespace internal

/// Monotonic counter with per-thread striped storage: fetch_add lands on
/// the calling thread's stripe (a relaxed RMW on an uncontended cache
/// line), load sums the stripes. The interface deliberately mirrors the
/// std::atomic<int64_t> subset the engine tallies always used — load and
/// fetch_add with an explicit memory order — so converting a tally struct
/// field is a type change, not a call-site change.
///
/// The merged value is exact at any quiescent point (all increments
/// happen-before the read); a load racing increments may miss in-flight
/// stripe bumps but never double-counts and never goes backwards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void fetch_add(int64_t n,
                 std::memory_order order = std::memory_order_relaxed) {
    stripes_[internal::ThreadStripeIndex() & (kStripes - 1)].v.fetch_add(
        n, order);
  }

  int64_t load(std::memory_order order = std::memory_order_relaxed) const {
    int64_t total = 0;
    for (const Stripe& s : stripes_) total += s.v.load(order);
    return total;
  }

 private:
  static constexpr size_t kStripes = 16;  // power of two
  struct alignas(64) Stripe {
    std::atomic<int64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

/// Point-in-time level (queue depth, in-flight batch size). Last writer
/// wins; no striping — gauges are set under the owner's existing locks.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-spaced histogram with relaxed-atomic bins: Record is one relaxed
/// RMW on the sample's bin. Layout: an explicit [0, lo) underflow bin,
/// `bins` log-spaced bins over [lo, hi), and a clamped overflow bin — so a
/// snapshot's total is the sum of its bins by construction, the
/// consistency invariant the exporter test leans on. Quantiles interpolate
/// linearly inside the containing bin (the stats/Histogram convention).
class HistogramMetric {
 public:
  /// Requires 0 < lo < hi, bins >= 1 (clamped defensively otherwise).
  HistogramMetric(double lo, double hi, int bins);
  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

  void Record(double x) {
    counts_[static_cast<size_t>(BinOf(x))].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Consistent copy of the bins: `total` equals the sum of `counts`.
  struct Snapshot {
    std::vector<double> edges;    // counts.size() + 1 ascending edges
    std::vector<int64_t> counts;  // underflow, log bins, overflow
    int64_t total = 0;
    /// Approximate q-quantile (q in [0, 1]); 0 when empty.
    double Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;

  int64_t Count() const;
  double Quantile(double q) const { return TakeSnapshot().Quantile(q); }

 private:
  /// Bin index of x in [0, counts_ size): 0 below lo, last at/above hi.
  int BinOf(double x) const;

  std::vector<double> edges_;  // counts + 1 edges: 0, lo, ..., hi, 2*hi
  std::unique_ptr<std::atomic<int64_t>[]> counts_;
  size_t num_counts_ = 0;
};

/// Name → metric directory. Registration is non-owning — the engines own
/// their tally structs and register the fields; registered metrics must
/// outlive the registry (engines declare the registry first so it is
/// destroyed last). TakeSnapshot reads every registered metric once and
/// returns the values sorted by name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void RegisterCounter(const std::string& name, const Counter* counter);
  void RegisterGauge(const std::string& name, const Gauge* gauge);
  void RegisterHistogram(const std::string& name,
                         const HistogramMetric* histogram);

  struct HistogramEntry {
    std::string name;
    HistogramMetric::Snapshot data;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, int64_t>> counters;  // name-sorted
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramEntry> histograms;

    /// Value of the named counter/gauge, or 0 when unregistered.
    int64_t CounterValue(const std::string& name) const;
    int64_t GaugeValue(const std::string& name) const;
    /// q-quantile of the named histogram, or 0 when unregistered/empty.
    double HistogramQuantile(const std::string& name, double q) const;
    int64_t HistogramCount(const std::string& name) const;
  };
  Snapshot TakeSnapshot() const;

 private:
  /// Near the top of the obs rank band: TakeSnapshot may run while engine
  /// or exporter locks are held by their owners elsewhere, but this thread
  /// holds none of them — registration and snapshots are leaf operations,
  /// so kObsRegistry sits above every engine class and the exporter.
  mutable Mutex mu_{LockRank::kObsRegistry, "obs.registry.mu"};
  std::vector<std::pair<std::string, const Counter*>> counters_
      APC_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, const Gauge*>> gauges_
      APC_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, const HistogramMetric*>> histograms_
      APC_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace apc

#endif  // APC_OBS_METRICS_H_
