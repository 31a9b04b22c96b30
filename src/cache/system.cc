#include "cache/system.h"

namespace apc {

CacheSystem::CacheSystem(const SystemConfig& config,
                         std::vector<std::unique_ptr<Source>> sources,
                         uint64_t seed)
    : sources_(std::move(sources)), table_(config.TableConfig(), seed) {
  for (const auto& src : sources_) table_.Register(src->id());
}

void CacheSystem::PopulateInitial(int64_t now) {
  for (auto& src : sources_) {
    table_.OfferInitial(src->id(), src->cell(), src->value(), now);
  }
}

void CacheSystem::Tick(int64_t now) {
  for (auto& src : sources_) {
    src->Tick();
    table_.OnValueTick(src->id(), src->cell(), src->value(), now);
  }
}

double CacheSystem::PullExact(int id, int64_t now) {
  Source* src = source(id);
  return table_.Pull(id, src->cell(), src->value(), now);
}

Interval CacheSystem::ExecuteQuery(const Query& query, int64_t now) {
  std::vector<QueryItem> items;
  items.reserve(query.source_ids.size());
  for (int id : query.source_ids) {
    items.push_back({id, VisibleInterval(id, now)});
  }

  switch (query.kind) {
    case AggregateKind::kSum: {
      // One-shot selection: refreshing an item removes exactly its width
      // from the result, so the refresh set is known up front.
      std::vector<size_t> selection =
          SumRefreshSelection(items, query.constraint);
      for (size_t idx : selection) {
        double exact = PullExact(items[idx].source_id, now);
        items[idx].interval = Interval::Exact(exact);
      }
      return SumInterval(items);
    }
    case AggregateKind::kMax: {
      // Iterative selection with candidate elimination: each pull either
      // lowers the result's upper bound or raises its lower bound.
      int idx;
      while ((idx = NextMaxRefreshCandidate(items, query.constraint)) >= 0) {
        double exact = PullExact(items[static_cast<size_t>(idx)].source_id,
                                 now);
        items[static_cast<size_t>(idx)].interval = Interval::Exact(exact);
      }
      return MaxInterval(items);
    }
    case AggregateKind::kMin: {
      int idx;
      while ((idx = NextMinRefreshCandidate(items, query.constraint)) >= 0) {
        double exact = PullExact(items[static_cast<size_t>(idx)].source_id,
                                 now);
        items[static_cast<size_t>(idx)].interval = Interval::Exact(exact);
      }
      return MinInterval(items);
    }
    case AggregateKind::kAvg: {
      std::vector<size_t> selection =
          AvgRefreshSelection(items, query.constraint);
      for (size_t idx2 : selection) {
        double exact = PullExact(items[idx2].source_id, now);
        items[idx2].interval = Interval::Exact(exact);
      }
      return AvgInterval(items);
    }
  }
  return Interval(0.0, 0.0);
}

int CacheSystem::CountInvalidEntries(int64_t now) const {
  int invalid = 0;
  table_.ForEachEntry([&](int id, const ProtocolEntry& entry) {
    if (!entry.approx.Valid(source(id)->value(), now)) ++invalid;
  });
  return invalid;
}

double CacheSystem::MeanRawWidth() const {
  if (sources_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& src : sources_) total += src->raw_width();
  return total / static_cast<double>(sources_.size());
}

}  // namespace apc
