#include "obs/attribution.h"

#include <algorithm>

namespace apc {
namespace obs {

namespace {

size_t StripeIndex(int id) {
  // Same cheap spread the engines use for shard routing: ids are dense
  // small ints, so a multiplicative mix avoids clustering stripes.
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(id));
  h *= 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> 60);  // top 4 bits -> 16 stripes
}

}  // namespace

AttributionTable::Slot& AttributionTable::SlotOf(Stripe& stripe, int id) {
  for (auto& entry : stripe.slots) {
    if (entry.first == id) return entry.second;
  }
  stripe.slots.emplace_back(id, Slot{});
  return stripe.slots.back().second;
}

void AttributionTable::RecordWidth(Slot& slot, double width, int64_t now) {
  slot.last_width = width;
  slot.last_now = now;
  slot.history[slot.history_head] = WidthPoint{now, width};
  slot.history_head = (slot.history_head + 1) % kHistory;
  if (slot.history_size < kHistory) ++slot.history_size;
}

void AttributionTable::RecordValueRefresh(int id, double cost, double width,
                                          int64_t now) {
  Stripe& stripe = stripes_[StripeIndex(id)];
  MutexLock lock(stripe.mu);
  Slot& slot = SlotOf(stripe, id);
  ++slot.value_refreshes;
  slot.value_cost += cost;
  RecordWidth(slot, width, now);
}

void AttributionTable::RecordQueryRefresh(int id, double cost, double width,
                                          int64_t now) {
  ReaderKind reader = ReaderScope::current_kind();
  Stripe& stripe = stripes_[StripeIndex(id)];
  MutexLock lock(stripe.mu);
  Slot& slot = SlotOf(stripe, id);
  ++slot.query_refreshes;
  slot.query_cost += cost;
  switch (reader) {
    case ReaderKind::kQuery:
      ++slot.query_reader_refreshes;
      break;
    case ReaderKind::kSubscription:
      ++slot.subscription_reader_refreshes;
      break;
    case ReaderKind::kNone:
      ++slot.unattributed_query_refreshes;
      break;
  }
  RecordWidth(slot, width, now);
}

std::vector<AttributionTable::SourceStats> AttributionTable::Snapshot()
    const {
  std::vector<SourceStats> out;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    for (const auto& entry : stripe.slots) {
      const Slot& slot = entry.second;
      SourceStats stats;
      stats.id = entry.first;
      stats.value_refreshes = slot.value_refreshes;
      stats.query_refreshes = slot.query_refreshes;
      stats.query_reader_refreshes = slot.query_reader_refreshes;
      stats.subscription_reader_refreshes =
          slot.subscription_reader_refreshes;
      stats.unattributed_query_refreshes =
          slot.unattributed_query_refreshes;
      stats.value_cost = slot.value_cost;
      stats.query_cost = slot.query_cost;
      stats.last_width = slot.last_width;
      stats.last_now = slot.last_now;
      stats.width_history.reserve(slot.history_size);
      // Oldest retained point: head when wrapped, 0 otherwise.
      size_t start =
          slot.history_size < kHistory ? 0 : slot.history_head;
      for (size_t i = 0; i < slot.history_size; ++i) {
        stats.width_history.push_back(
            slot.history[(start + i) % kHistory]);
      }
      out.push_back(std::move(stats));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SourceStats& a, const SourceStats& b) {
              return a.id < b.id;
            });
  return out;
}

AttributionTable::Totals AttributionTable::TotalsSnapshot() const {
  Totals totals;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    for (const auto& entry : stripe.slots) {
      const Slot& slot = entry.second;
      totals.value_refreshes += slot.value_refreshes;
      totals.query_refreshes += slot.query_refreshes;
      totals.query_reader_refreshes += slot.query_reader_refreshes;
      totals.subscription_reader_refreshes +=
          slot.subscription_reader_refreshes;
      totals.unattributed_query_refreshes +=
          slot.unattributed_query_refreshes;
      totals.value_cost += slot.value_cost;
      totals.query_cost += slot.query_cost;
    }
  }
  return totals;
}

}  // namespace obs
}  // namespace apc
