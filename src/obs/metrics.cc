#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace apc {
namespace obs {

namespace internal {

size_t AllocateStripeIndex() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

HistogramMetric::HistogramMetric(double lo, double hi, int bins) {
  if (!(lo > 0.0)) lo = 1.0;
  if (!(hi > lo)) hi = lo * 2.0;
  if (bins < 1) bins = 1;
  // Edge layout: 0 | lo ... hi (log-spaced) | 2*hi. The first span is the
  // explicit underflow bin (lag 0 is a common sample), the last the
  // clamped overflow bin — both participate in counts and quantiles.
  edges_.reserve(static_cast<size_t>(bins) + 3);
  edges_.push_back(0.0);
  double ratio = std::pow(hi / lo, 1.0 / bins);
  double edge = lo;
  for (int i = 0; i < bins; ++i) {
    edges_.push_back(edge);
    edge *= ratio;
  }
  edges_.push_back(hi);
  edges_.push_back(2.0 * hi);
  num_counts_ = edges_.size() - 1;
  counts_ = std::make_unique<std::atomic<int64_t>[]>(num_counts_);
  for (size_t i = 0; i < num_counts_; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

int HistogramMetric::BinOf(double x) const {
  if (!(x > 0.0)) return 0;  // negatives and NaN land in the underflow bin
  auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  long idx = it - edges_.begin() - 1;
  if (idx < 0) idx = 0;
  long last = static_cast<long>(num_counts_) - 1;
  if (idx > last) idx = last;
  return static_cast<int>(idx);
}

HistogramMetric::Snapshot HistogramMetric::TakeSnapshot() const {
  Snapshot snap;
  snap.edges = edges_;
  snap.counts.resize(num_counts_);
  for (size_t i = 0; i < num_counts_; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  // Total is derived from the copied bins, never read separately — the
  // snapshot is internally consistent by construction even mid-race.
  for (int64_t c : snap.counts) snap.total += c;
  return snap;
}

int64_t HistogramMetric::Count() const { return TakeSnapshot().total; }

double HistogramMetric::Snapshot::Quantile(double q) const {
  if (total <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  double rank = q * static_cast<double>(total - 1);
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    int64_t c = counts[i];
    if (c <= 0) continue;
    if (rank < static_cast<double>(seen + c)) {
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(c);
      double lo = edges[i];
      double hi = edges[i + 1];
      return lo + frac * (hi - lo);
    }
    seen += c;
  }
  return edges.back();
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* counter) {
  MutexLock lock(mu_);
  counters_.emplace_back(name, counter);
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    const Gauge* gauge) {
  MutexLock lock(mu_);
  gauges_.emplace_back(name, gauge);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const HistogramMetric* histogram) {
  MutexLock lock(mu_);
  histograms_.emplace_back(name, histogram);
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  {
    MutexLock lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      snap.counters.emplace_back(name, counter->load());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges.emplace_back(name, gauge->Value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      snap.histograms.push_back({name, histogram->TakeSnapshot()});
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramEntry& a, const HistogramEntry& b) {
              return a.name < b.name;
            });
  return snap;
}

int64_t MetricsRegistry::Snapshot::CounterValue(
    const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsRegistry::Snapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsRegistry::Snapshot::HistogramQuantile(const std::string& name,
                                                    double q) const {
  for (const auto& entry : histograms) {
    if (entry.name == name) return entry.data.Quantile(q);
  }
  return 0.0;
}

int64_t MetricsRegistry::Snapshot::HistogramCount(
    const std::string& name) const {
  for (const auto& entry : histograms) {
    if (entry.name == name) return entry.data.total;
  }
  return 0;
}

}  // namespace obs
}  // namespace apc
