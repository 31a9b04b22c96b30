#ifndef APC_PERFBENCH_LATENCY_HISTOGRAM_H_
#define APC_PERFBENCH_LATENCY_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Log-linear latency histogram over integer nanoseconds, in the style of
/// HdrHistogram: values below 32 ns get one bucket per nanosecond, and every
/// power-of-two range above that is split into 32 equal sub-buckets, so a
/// bucket is never wider than 1/32 of its lower edge (≤3.2% relative error).
/// Quantiles interpolate linearly by rank inside the containing bucket.
///
/// Not thread-safe: each thread records into its own histogram and the
/// histograms are merged after the threads have joined.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  /// Power-of-two ranges above the linear region: up to 2^45 ns (~10 h).
  static constexpr int kRanges = 40;
  static constexpr size_t kBuckets = kSub + kRanges * kSub;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Record(int64_t ns) {
    uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    size_t b = BucketOf(v);
    if (b >= kBuckets) b = kBuckets - 1;
    ++counts_[b];
    ++total_;
    sum_ += static_cast<double>(v);
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
    sum_ += other.sum_;
  }

  int64_t count() const { return total_; }
  double mean() const {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

  /// q-quantile in nanoseconds (q in [0, 1]); 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    double rank = q * static_cast<double>(total_);
    int64_t below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(below + counts_[b]) >= rank) {
        double frac =
            (rank - static_cast<double>(below)) / static_cast<double>(counts_[b]);
        return static_cast<double>(BucketLow(b)) +
               frac * static_cast<double>(BucketWidth(b));
      }
      below += counts_[b];
    }
    return static_cast<double>(BucketLow(kBuckets - 1));
  }

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int msb = 63 - __builtin_clzll(v);
    int shift = msb - kSubBits;
    uint64_t sub = (v >> shift) - kSub;
    return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub + sub);
  }
  static uint64_t BucketLow(size_t b) {
    if (b < kSub) return b;
    uint64_t shift = (b - kSub) / kSub;
    uint64_t sub = (b - kSub) % kSub;
    return (kSub + sub) << shift;
  }
  static uint64_t BucketWidth(size_t b) {
    return b < kSub ? 1 : uint64_t{1} << ((b - kSub) / kSub);
  }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace perfbench

#endif  // APC_PERFBENCH_LATENCY_HISTOGRAM_H_
