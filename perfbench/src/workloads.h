#ifndef APC_PERFBENCH_WORKLOADS_H_
#define APC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/traffic_trace.h"
#include "query/aggregate.h"
#include "query/constraint_gen.h"

namespace perfbench {

/// One named workload: the engine shape, the read mix each reader issues
/// per logical tick, the shape of the generated value series, and the
/// standing subscriptions. Every input is generated from the run's seed.
struct WorkloadSpec {
  const char* name = "";
  bool tiered = false;
  int num_sources = 0;
  int num_shards = 8;
  /// Fixed read quota each reader issues per epoch (per logical tick).
  int reads_per_reader_per_tick = 0;
  /// Untraced rounds time one point read in `sample_every`: enough for ten
  /// samples beyond p99 in every round while keeping the two clock reads a
  /// small share of a point read. Aggregates are always timed.
  int sample_every = 1;
  /// Share of reads that are aggregate queries; the rest are point reads.
  double agg_fraction = 0.0;
  /// Ids per aggregate. With burst groups, an aggregate covers one whole
  /// burst group instead of Zipf-drawn ids, and so does every group
  /// subscription.
  int agg_group_size = 10;
  /// Zipf exponent of point-read and aggregate id draws (0 = uniform).
  double zipf_s = 0.0;
  /// Read constraints: U[avg(1-rho), avg(1+rho)].
  apc::ConstraintParams constraints{20.0, 1.0};
  int warmup_ticks = 0;
  int measured_ticks = 0;
  /// Series shape: 0 = independent random walks; otherwise ids are grouped
  /// in runs of this size, and on a burst tick about half the groups jump
  /// together by ±U[30, 60] instead of walking.
  int burst_group_size = 0;
  double burst_tick_probability = 0.0;
  /// Standing subscriptions registered during setup; the point share
  /// subscribes to single ids, the rest to group aggregates.
  int num_subscriptions = 0;
  double sub_point_fraction = 1.0;
  /// Subscription bounds δ_sub: U[avg(1-rho), avg(1+rho)].
  apc::ConstraintParams sub_deltas{40.0, 0.5};
  /// TieredEngine shape (tiered workloads only): each edge caches
  /// `edge_capacity` ids, and the edge -> hotspot mapping rotates at each
  /// of `num_phases` equal phases of the measured ticks.
  int num_edges = 0;
  int edge_capacity = 0;
  int num_phases = 1;
};

const std::vector<WorkloadSpec>& AllWorkloads();
/// The named workload, or nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The exact value of every source at every tick, tick-major so that the
/// checks of one epoch touch three short rows.
class Series {
 public:
  Series(int num_sources, int num_ticks)
      : num_sources_(num_sources),
        num_ticks_(num_ticks),
        by_tick_(static_cast<size_t>(num_sources) *
                 static_cast<size_t>(num_ticks + 1)) {}

  int num_sources() const { return num_sources_; }
  /// Ticks 0..num_ticks() inclusive carry values; tick 0 is the initial one.
  int num_ticks() const { return num_ticks_; }
  double at(int64_t tick, int id) const {
    return by_tick_[static_cast<size_t>(tick) *
                        static_cast<size_t>(num_sources_) +
                    static_cast<size_t>(id)];
  }
  double& at(int64_t tick, int id) {
    return by_tick_[static_cast<size_t>(tick) *
                        static_cast<size_t>(num_sources_) +
                    static_cast<size_t>(id)];
  }
  /// Host-major copy in the library's trace format (hosts[id][tick]).
  apc::Trace ToTrace() const;

 private:
  int num_sources_;
  int num_ticks_;
  std::vector<double> by_tick_;
};

Series GenerateSeries(const WorkloadSpec& spec, uint64_t seed);

/// One pre-generated read. For tiered workloads `id` is a Zipf rank that
/// the reader maps onto the id space of its edge's current hotspot.
struct Op {
  bool aggregate = false;
  uint8_t edge = 0;
  int id = 0;
  int query = -1;  // index into OpTable::queries for aggregates
  double constraint = 0.0;
};

/// A reader's cyclic read stream, generated during setup so that drawing
/// ids is not part of the measured read path.
struct OpTable {
  std::vector<Op> ops;
  std::vector<apc::Query> queries;
};

OpTable GenerateOps(const WorkloadSpec& spec, uint64_t seed, int reader);

/// Standing queries with their bounds δ_sub.
std::vector<std::pair<apc::Query, double>> GenerateSubscriptions(
    const WorkloadSpec& spec, uint64_t seed);

/// Tiered workloads: the id a reader at `edge` reads for Zipf rank `rank`
/// during `phase`. Edge e's hottest id in phase p is the first id of
/// block (e + p) mod num_edges.
inline int TieredId(const WorkloadSpec& spec, int edge, int phase, int rank) {
  int block = spec.num_sources / spec.num_edges;
  int base = ((edge + phase) % spec.num_edges) * block;
  return (base + rank) % spec.num_sources;
}

}  // namespace perfbench

#endif  // APC_PERFBENCH_WORKLOADS_H_
