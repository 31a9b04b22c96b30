#include "workloads.h"

#include <algorithm>

#include "query/query_gen.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr size_t kOpsPerReader = 65536;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec point_hot;
  point_hot.name = "point_hot";
  point_hot.num_sources = 1024;
  point_hot.reads_per_reader_per_tick = 1000;
  point_hot.sample_every = 8;
  point_hot.agg_fraction = 0.05;
  point_hot.agg_group_size = 10;
  point_hot.zipf_s = 1.1;
  point_hot.warmup_ticks = 200;
  point_hot.measured_ticks = 1200;
  point_hot.num_subscriptions = 32;
  point_hot.sub_point_fraction = 1.0;
  all.push_back(point_hot);

  WorkloadSpec burst_write;
  burst_write.name = "burst_write";
  burst_write.num_sources = 512;
  burst_write.reads_per_reader_per_tick = 4;
  burst_write.agg_fraction = 0.5;
  burst_write.zipf_s = 0.0;
  burst_write.warmup_ticks = 500;
  burst_write.measured_ticks = 4000;
  burst_write.burst_group_size = 8;
  burst_write.burst_tick_probability = 1.0 / 16.0;
  burst_write.num_subscriptions = 128;
  burst_write.sub_point_fraction = 0.75;
  all.push_back(burst_write);

  WorkloadSpec tiered_geo;
  tiered_geo.name = "tiered_geo";
  tiered_geo.tiered = true;
  tiered_geo.num_sources = 1024;
  tiered_geo.reads_per_reader_per_tick = 250;
  tiered_geo.sample_every = 8;
  tiered_geo.agg_fraction = 0.05;
  tiered_geo.agg_group_size = 10;
  tiered_geo.zipf_s = 1.1;
  tiered_geo.warmup_ticks = 200;
  tiered_geo.measured_ticks = 1200;
  tiered_geo.num_subscriptions = 32;
  tiered_geo.sub_point_fraction = 1.0;
  tiered_geo.num_edges = 4;
  tiered_geo.edge_capacity = 256;
  tiered_geo.num_phases = 4;
  all.push_back(tiered_geo);

  return all;
}

apc::AggregateKind KindAt(int k) {
  static constexpr apc::AggregateKind kKinds[] = {
      apc::AggregateKind::kSum, apc::AggregateKind::kMax,
      apc::AggregateKind::kMin, apc::AggregateKind::kAvg};
  return kKinds[k % 4];
}

/// One burst group's ids as an aggregate of the given kind.
apc::Query GroupQuery(const WorkloadSpec& spec, int group, int k,
                      double constraint) {
  apc::Query q;
  q.kind = KindAt(k);
  q.constraint = constraint;
  for (int i = 0; i < spec.burst_group_size; ++i) {
    q.source_ids.push_back(group * spec.burst_group_size + i);
  }
  return q;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

apc::Trace Series::ToTrace() const {
  apc::Trace trace;
  trace.hosts.assign(static_cast<size_t>(num_sources_),
                     std::vector<double>(static_cast<size_t>(num_ticks_ + 1)));
  for (int t = 0; t <= num_ticks_; ++t) {
    for (int id = 0; id < num_sources_; ++id) {
      trace.hosts[static_cast<size_t>(id)][static_cast<size_t>(t)] = at(t, id);
    }
  }
  return trace;
}

Series GenerateSeries(const WorkloadSpec& spec, uint64_t seed) {
  const int n = spec.num_sources;
  Series series(n, spec.warmup_ticks + spec.measured_ticks);
  apc::Rng rng(seed);
  for (int id = 0; id < n; ++id) series.at(0, id) = rng.Uniform(-100.0, 100.0);
  const int groups =
      spec.burst_group_size > 0 ? n / spec.burst_group_size : 0;
  std::vector<double> jump(static_cast<size_t>(groups), 0.0);
  for (int t = 1; t <= series.num_ticks(); ++t) {
    bool burst = groups > 0 && rng.Bernoulli(spec.burst_tick_probability);
    for (int g = 0; g < groups; ++g) {
      double j = 0.0;
      if (burst && rng.Bernoulli(0.5)) {
        j = rng.Uniform(30.0, 60.0);
        if (rng.Bernoulli(0.5)) j = -j;
      }
      jump[static_cast<size_t>(g)] = j;
    }
    for (int id = 0; id < n; ++id) {
      double step = groups > 0 && id / spec.burst_group_size < groups
                        ? jump[static_cast<size_t>(id / spec.burst_group_size)]
                        : 0.0;
      if (step == 0.0) {
        step = rng.Uniform(0.5, 1.5);
        if (rng.Bernoulli(0.5)) step = -step;
      }
      series.at(t, id) = series.at(t - 1, id) + step;
    }
  }
  return series;
}

OpTable GenerateOps(const WorkloadSpec& spec, uint64_t seed, int reader) {
  apc::Rng rng(seed ^ (0x51ed2701ULL * static_cast<uint64_t>(reader + 1)));
  apc::QueryWorkloadParams point_params;
  point_params.num_sources = spec.num_sources;
  point_params.group_size = 1;
  point_params.zipf_s = spec.zipf_s;
  point_params.constraints = spec.constraints;
  apc::QueryGenerator points(point_params, rng.NextUint64());

  apc::QueryWorkloadParams agg_params = point_params;
  agg_params.group_size = spec.agg_group_size;
  agg_params.max_fraction = 0.25;
  agg_params.min_fraction = 0.25;
  agg_params.avg_fraction = 0.25;
  apc::QueryGenerator aggs(agg_params, rng.NextUint64());
  apc::ConstraintGenerator constraints(spec.constraints, rng.NextUint64());

  OpTable table;
  table.ops.reserve(kOpsPerReader);
  apc::Query point;
  for (size_t i = 0; i < kOpsPerReader; ++i) {
    Op op;
    op.edge = spec.num_edges > 0
                  ? static_cast<uint8_t>((static_cast<size_t>(reader) + i) %
                                         static_cast<size_t>(spec.num_edges))
                  : 0;
    if (rng.Bernoulli(spec.agg_fraction)) {
      op.aggregate = true;
      op.query = static_cast<int>(table.queries.size());
      if (spec.burst_group_size > 0) {
        int groups = spec.num_sources / spec.burst_group_size;
        int g = static_cast<int>(rng.UniformInt(0, groups - 1));
        table.queries.push_back(GroupQuery(
            spec, g, static_cast<int>(table.queries.size()), constraints.Next()));
      } else {
        table.queries.push_back(aggs.Next());
      }
    } else {
      points.Next(&point);
      op.id = point.source_ids[0];
      op.constraint = point.constraint;
    }
    table.ops.push_back(op);
  }
  return table;
}

std::vector<std::pair<apc::Query, double>> GenerateSubscriptions(
    const WorkloadSpec& spec, uint64_t seed) {
  apc::Rng rng(seed ^ 0x5b5c0ffeeULL);
  apc::ConstraintGenerator deltas(spec.sub_deltas, rng.NextUint64());
  std::vector<std::pair<apc::Query, double>> subs;
  const int num_point = static_cast<int>(
      spec.sub_point_fraction * static_cast<double>(spec.num_subscriptions));
  std::vector<int> ids(static_cast<size_t>(spec.num_sources));
  for (int id = 0; id < spec.num_sources; ++id) {
    ids[static_cast<size_t>(id)] = id;
  }
  // Partial Fisher-Yates: distinct subscribed ids.
  for (int i = 0; i < num_point && i < spec.num_sources; ++i) {
    int j = static_cast<int>(rng.UniformInt(i, spec.num_sources - 1));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
    apc::Query q;
    q.kind = apc::AggregateKind::kSum;
    q.source_ids.push_back(ids[static_cast<size_t>(i)]);
    subs.emplace_back(q, deltas.Next());
  }
  for (int k = num_point; k < spec.num_subscriptions; ++k) {
    int groups = spec.num_sources / spec.burst_group_size;
    subs.emplace_back(GroupQuery(spec, (k - num_point) % groups, k, 0.0),
                      deltas.Next());
  }
  return subs;
}

}  // namespace perfbench
