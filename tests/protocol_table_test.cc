#include "core/protocol_table.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_policy.h"
#include "core/precision_policy.h"
#include "util/rng.h"

namespace apc {
namespace {

/// Deterministic adaptive policy: costs {1, 2} give theta = 1, so a
/// value-initiated refresh ALWAYS doubles the raw width (grow probability
/// min(theta, 1) = 1) and a query-initiated refresh ALWAYS halves it.
AdaptivePolicyParams DeterministicParams() {
  AdaptivePolicyParams params;
  params.cvr = 1.0;
  params.cqr = 2.0;
  params.alpha = 1.0;
  params.initial_width = 1.0;
  return params;
}

ProtocolCell MakeCell(double value, const AdaptivePolicyParams& params) {
  return ProtocolCell(std::make_unique<AdaptivePolicy>(params, /*seed=*/7),
                      value);
}

ProtocolTable::Config TableConfig(size_t capacity,
                                  double push_loss_probability = 0.0) {
  ProtocolTable::Config config;
  config.costs = {1.0, 2.0};
  config.capacity = capacity;
  config.push_loss_probability = push_loss_probability;
  return config;
}

TEST(ProtocolCellTest, RefreshAdjustsWidthAndReships) {
  ProtocolCell cell = MakeCell(10.0, DeterministicParams());
  EXPECT_DOUBLE_EQ(cell.raw_width(), 1.0);
  EXPECT_TRUE(cell.last_shipped().Valid(10.0, 0));

  // 10.6 escaped [9.5, 10.5]: the value-initiated refresh doubles the
  // width and ships a fresh interval centered on the new value.
  EXPECT_TRUE(cell.NeedsValueRefresh(10.6, 1));
  CachedApprox approx = cell.Refresh(10.6, RefreshType::kValueInitiated, 1);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 2.0);
  EXPECT_TRUE(approx.Valid(10.6, 1));
  EXPECT_DOUBLE_EQ(approx.base.Width(), 2.0);

  // A pull halves it again.
  cell.Refresh(10.6, RefreshType::kQueryInitiated, 2);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 1.0);
}

TEST(ProtocolCellTest, RawWidthRetainedAcrossThresholdSnapping) {
  AdaptivePolicyParams params = DeterministicParams();
  params.delta0 = 0.3;  // effective 0 below
  params.delta1 = 3.0;  // effective infinity at or above
  ProtocolCell cell = MakeCell(0.0, params);

  // Raw 1 -> 2 -> 4: the shipped width snaps to infinity at 4, but the
  // retained raw width keeps its true value and keeps adjusting from it
  // (paper §2) — the next pull halves 4, not infinity.
  cell.Refresh(0.0, RefreshType::kValueInitiated, 1);
  cell.Refresh(0.0, RefreshType::kValueInitiated, 2);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 4.0);
  EXPECT_EQ(cell.EffectiveWidth(), kInfinity);
  EXPECT_TRUE(cell.last_shipped().base.IsUnbounded());

  cell.Refresh(0.0, RefreshType::kQueryInitiated, 3);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 2.0);
  EXPECT_DOUBLE_EQ(cell.EffectiveWidth(), 2.0);

  // 2 -> 1 -> 0.5 -> 0.25: below delta0 the shipped copy is exact while
  // the raw width stays 0.25.
  cell.Refresh(0.0, RefreshType::kQueryInitiated, 4);
  cell.Refresh(0.0, RefreshType::kQueryInitiated, 5);
  cell.Refresh(0.0, RefreshType::kQueryInitiated, 6);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 0.25);
  EXPECT_DOUBLE_EQ(cell.EffectiveWidth(), 0.0);
  EXPECT_TRUE(cell.last_shipped().base.IsExact());
}

TEST(EntryStoreTest, OfferExReportsEviction) {
  EntryStore store(2);
  CachedApprox approx;
  approx.base = Interval(0.0, 1.0);
  EXPECT_TRUE(store.OfferEx(1, approx, 8.0).cached);
  EXPECT_TRUE(store.OfferEx(2, approx, 4.0).cached);

  // Full: a narrower offer evicts the widest (id 1, raw 8).
  EntryStore::OfferResult result = store.OfferEx(3, approx, 2.0);
  EXPECT_TRUE(result.cached);
  EXPECT_EQ(result.evicted_id, 1);

  // An offer at least as wide as the widest incumbent is rejected.
  result = store.OfferEx(4, approx, 4.0);
  EXPECT_FALSE(result.cached);
  EXPECT_EQ(result.evicted_id, -1);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ProtocolTableTest, ChargedButLostPushes) {
  // Loss probability 1: every push is dropped, yet Cvr is still charged —
  // the source paid for the message whether or not it arrived.
  ProtocolTable table(TableConfig(4, /*push_loss_probability=*/1.0),
                      /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());
  table.costs().BeginMeasurement(0);

  ValueTickOutcome outcome = table.OnValueTick(0, cell, 5.0, 1);
  EXPECT_TRUE(outcome.refreshed);
  EXPECT_TRUE(outcome.lost);
  EXPECT_EQ(table.costs().value_refreshes(), 1);
  EXPECT_EQ(table.lost_pushes(), 1);
  EXPECT_EQ(table.Find(0), nullptr) << "the cache must never see the push";
  // The cell's own shipped interval DID advance: no resend until the value
  // escapes the new interval.
  EXPECT_FALSE(cell.NeedsValueRefresh(5.0, 1));
  EXPECT_EQ(table.OnValueTick(0, cell, 5.0, 2).refreshed, false);
}

TEST(ProtocolTableTest, ValueTickChargesOnlyOnEscape) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());
  table.costs().BeginMeasurement(0);
  table.OfferInitial(0, cell, 0.0, 0);
  EXPECT_EQ(table.costs().value_refreshes(), 0) << "initial ship is free";

  EXPECT_FALSE(table.OnValueTick(0, cell, 0.4, 1).refreshed)
      << "0.4 is inside [-0.5, 0.5]";
  EXPECT_TRUE(table.OnValueTick(0, cell, 0.6, 2).refreshed);
  EXPECT_EQ(table.costs().value_refreshes(), 1);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_TRUE(table.Find(0)->approx.Valid(0.6, 2));
}

TEST(ProtocolTableTest, PullChargesAndReoffersEveryTime) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(1.0, DeterministicParams());
  table.costs().BeginMeasurement(0);

  // First pull: the value was never cached; the pull both charges Cqr and
  // installs the fresh approximation.
  EXPECT_DOUBLE_EQ(table.Pull(0, cell, 1.0, 1), 1.0);
  EXPECT_EQ(table.costs().query_refreshes(), 1);
  ASSERT_NE(table.Find(0), nullptr);
  double first_width = table.Find(0)->raw_width;
  EXPECT_DOUBLE_EQ(first_width, 0.5);  // deterministic halving

  // Every subsequent pull re-offers: the entry tracks the shrinking width.
  table.Pull(0, cell, 1.0, 2);
  EXPECT_EQ(table.costs().query_refreshes(), 2);
  EXPECT_DOUBLE_EQ(table.Find(0)->raw_width, 0.25);
}

TEST(ProtocolTableTest, EvictionUsesRawWidthsAndMirrorsSlots) {
  ProtocolTable table(TableConfig(1), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ASSERT_TRUE(table.Register(1));
  EXPECT_FALSE(table.Register(1)) << "duplicate registration rejected";

  AdaptivePolicyParams wide = DeterministicParams();
  wide.initial_width = 8.0;
  ProtocolCell wide_cell = MakeCell(0.0, wide);
  ProtocolCell narrow_cell = MakeCell(0.0, DeterministicParams());

  table.OfferInitial(0, wide_cell, 0.0, 0);
  ASSERT_NE(table.Find(0), nullptr);
  Interval seen;
  EXPECT_EQ(table.TryVisibleInterval(0, 0, &seen), SnapshotRead::kHit);
  EXPECT_EQ(seen, table.VisibleInterval(0, 0));

  // The narrower offer evicts id 0; both the store and the optimistic
  // read slots must agree.
  table.OfferInitial(1, narrow_cell, 0.0, 0);
  EXPECT_EQ(table.Find(0), nullptr);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(table.TryVisibleInterval(0, 0, &seen), SnapshotRead::kMiss);
  EXPECT_TRUE(seen.IsUnbounded());
  EXPECT_EQ(table.TryVisibleInterval(1, 0, &seen), SnapshotRead::kHit);
  EXPECT_EQ(seen, table.VisibleInterval(1, 0));

  // An unregistered id reads as a definitive miss, never a tear.
  EXPECT_EQ(table.TryVisibleInterval(99, 0, &seen), SnapshotRead::kMiss);
  EXPECT_TRUE(seen.IsUnbounded());
}

// The slot slab's id -> index map is dense (a direct vector load) for
// small non-negative ids and falls back to a hash map for negative or
// huge ids; both routes must serve identical seqlock reads.
TEST(EntryStoreTest, SlabServesDenseAndSparseIds) {
  constexpr int kHugeId = 1 << 21;  // beyond the dense-map limit
  EntryStore store(4);
  ASSERT_TRUE(store.RegisterSlot(3));        // dense route
  ASSERT_TRUE(store.RegisterSlot(kHugeId));  // sparse route: huge
  ASSERT_TRUE(store.RegisterSlot(-7));       // sparse route: negative
  EXPECT_FALSE(store.RegisterSlot(3));       // duplicates rejected
  EXPECT_EQ(store.num_slots(), 3u);
  for (int id : {3, kHugeId, -7}) {
    EXPECT_TRUE(store.HasSlot(id));
    EXPECT_NE(store.SlotIndexOf(id), EntryStore::kNoSlot);
  }
  EXPECT_EQ(store.SlotIndexOf(12345), EntryStore::kNoSlot);
  EXPECT_EQ(store.SlotIndexOf(-1), EntryStore::kNoSlot);
  EXPECT_EQ(store.SlotIndexOf(kHugeId + 1), EntryStore::kNoSlot);
}

// The optimistic read must serve dense, huge, and negative ids alike: the
// dense id takes the direct vector load, the other two the hash fallback,
// and all three hit the same contiguous slab.
TEST(ProtocolTableTest, OptimisticReadServesDenseAndSparseIds) {
  constexpr int kHugeId = 1 << 21;
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(3));
  ASSERT_TRUE(table.Register(kHugeId));
  ASSERT_TRUE(table.Register(-7));

  CachedApprox approx;
  approx.base = Interval(1.0, 2.0);
  for (int id : {3, kHugeId, -7}) {
    Interval visible;
    EXPECT_EQ(table.TryVisibleInterval(id, /*now=*/0, &visible),
              SnapshotRead::kMiss)
        << "uncached id " << id << " must read as a definitive miss";
    table.OfferDerivedInitial(id, approx, 1.0);
    ASSERT_EQ(table.TryVisibleInterval(id, /*now=*/0, &visible),
              SnapshotRead::kHit)
        << "slab read failed for id " << id;
    EXPECT_EQ(visible, table.VisibleInterval(id, /*now=*/0));
  }
  Interval out;
  EXPECT_EQ(table.TryVisibleInterval(12345, 0, &out), SnapshotRead::kMiss);
  EXPECT_EQ(table.TryVisibleInterval(-1, 0, &out), SnapshotRead::kMiss);
}

TEST(ProtocolTableTest, OptimisticReadMatchesAuthoritativeOverTime) {
  ProtocolTable table(TableConfig(2), /*seed=*/3);
  ASSERT_TRUE(table.Register(5));
  ProtocolCell cell(std::make_unique<FixedWidthPolicy>(1.0), 2.0);
  table.OfferInitial(5, cell, 2.0, 0);
  // The optimistic read reconstructs the CachedApprox (including its
  // time-evolution fields) from the versioned slot; it must agree with
  // the authoritative locked read at every time.
  for (int64_t now : {0, 3, 10}) {
    Interval optimistic;
    ASSERT_EQ(table.TryVisibleInterval(5, now, &optimistic),
              SnapshotRead::kHit);
    EXPECT_EQ(optimistic, table.VisibleInterval(5, now));
  }
}

// -- differential test: the slot-indexed store against a reference model --

/// Reference model of EntryStore: an ordered map and a linear widest scan
/// with the documented rule (largest raw width, ties to the larger id, an
/// equal-width offer keeps the incumbent).
struct ModelStore {
  size_t capacity = 0;
  std::map<int, ProtocolEntry> entries;

  int WidestId() const {
    int widest = -1;
    double widest_width = -1.0;
    for (const auto& [id, entry] : entries) {
      if (entry.raw_width > widest_width ||
          (entry.raw_width == widest_width && id > widest)) {
        widest = id;
        widest_width = entry.raw_width;
      }
    }
    return widest;
  }

  EntryStore::OfferResult Offer(int id, const CachedApprox& approx,
                                double raw_width) {
    auto it = entries.find(id);
    if (it != entries.end()) {
      it->second = ProtocolEntry{approx, raw_width};
      return {true, -1};
    }
    if (entries.size() < capacity) {
      entries[id] = ProtocolEntry{approx, raw_width};
      return {true, -1};
    }
    if (capacity == 0) return {false, -1};
    int widest = WidestId();
    if (raw_width >= entries.at(widest).raw_width) return {false, -1};
    entries.erase(widest);
    entries[id] = ProtocolEntry{approx, raw_width};
    return {true, widest};
  }
};

bool SameEntry(const ProtocolEntry& a, const ProtocolEntry& b) {
  return a.approx.base == b.approx.base &&
         a.approx.refresh_time == b.approx.refresh_time &&
         a.approx.growth_coeff == b.approx.growth_coeff &&
         a.approx.growth_exp == b.approx.growth_exp &&
         a.approx.drift_rate == b.approx.drift_rate &&
         a.raw_width == b.raw_width;
}

/// After every step: size, WidestId, the visitor, and Find for every id
/// agree with the model; for a registered id the lock-free slot read
/// agrees with Find (the slab mirror), and a bare id has no slot.
void ExpectAgrees(const EntryStore& store, const ModelStore& model,
                  const std::vector<int>& ids, bool registered, int64_t now,
                  const std::string& where) {
  ASSERT_EQ(store.size(), model.entries.size()) << where;
  EXPECT_EQ(store.WidestId(), model.WidestId()) << where;
  std::map<int, ProtocolEntry> visited;
  store.ForEachEntry([&](int id, const ProtocolEntry& entry) {
    EXPECT_TRUE(visited.emplace(id, entry).second)
        << where << ": id " << id << " visited twice";
  });
  ASSERT_EQ(visited.size(), model.entries.size()) << where;
  for (const auto& [id, entry] : model.entries) {
    auto it = visited.find(id);
    ASSERT_NE(it, visited.end()) << where << ": id " << id << " not visited";
    EXPECT_TRUE(SameEntry(it->second, entry)) << where << ": id " << id;
  }
  for (int id : ids) {
    auto it = model.entries.find(id);
    const ProtocolEntry* found = store.Find(id);
    ASSERT_EQ(found != nullptr, it != model.entries.end())
        << where << ": Find(" << id << ")";
    if (found != nullptr) {
      EXPECT_TRUE(SameEntry(*found, it->second)) << where << ": id " << id;
    }
    EXPECT_EQ(store.HasSlot(id), registered) << where << ": id " << id;
    Interval visible;
    SnapshotRead read = store.TryVisibleInterval(id, now, &visible);
    if (registered && found != nullptr) {
      ASSERT_EQ(read, SnapshotRead::kHit) << where << ": id " << id;
      EXPECT_EQ(visible, found->approx.AtTime(now)) << where << ": id " << id;
    } else {
      ASSERT_EQ(read, SnapshotRead::kMiss) << where << ": id " << id;
      EXPECT_TRUE(visible.IsUnbounded()) << where << ": id " << id;
    }
  }
}

/// Seeded random Offer/Erase sequences over a small id pool mixing dense,
/// negative and huge ids, with raw widths drawn from a few values so that
/// ties are common. `registered` pre-registers the whole pool (an
/// engine's table); otherwise every id stays bare (direct Cache use).
void RunDifferential(size_t capacity, bool registered, uint64_t seed) {
  const std::vector<int> ids = {0, 1, 2, 3, 5, 8, 13, 21, 63, 64, 200,
                                -1, -7, 1 << 21};
  constexpr double kWidths[] = {0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 2.0, 4.0};
  EntryStore store(capacity);
  ModelStore model;
  model.capacity = capacity;
  if (registered) {
    for (int id : ids) ASSERT_TRUE(store.RegisterSlot(id));
  }
  // An engine's lock-free readers hold the slab and the id index, so
  // neither may move or grow once registration ends.
  const VersionedSlot* slab = registered ? &store.SlotAt(0) : nullptr;
  const size_t slots = store.num_slots();

  Rng rng(seed);
  for (int64_t step = 1; step <= 600; ++step) {
    const int id = ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    const std::string where = "capacity " + std::to_string(capacity) +
                              (registered ? " registered" : " bare") +
                              " seed " + std::to_string(seed) + " step " +
                              std::to_string(step);
    if (rng.Bernoulli(0.25)) {
      store.Erase(id);
      model.entries.erase(id);
    } else {
      double raw_width = kWidths[rng.UniformInt(0, 7)];
      CachedApprox approx;
      double lo = rng.Uniform(-10.0, 10.0);
      approx.base = Interval(lo, lo + raw_width);
      approx.refresh_time = step;
      if (rng.Bernoulli(0.5)) {
        approx.growth_coeff = 0.25;
        approx.growth_exp = 0.5;
        approx.drift_rate = rng.Uniform(-1.0, 1.0);
      }
      EntryStore::OfferResult got = store.OfferEx(id, approx, raw_width);
      EntryStore::OfferResult want = model.Offer(id, approx, raw_width);
      ASSERT_EQ(got.cached, want.cached) << where;
      ASSERT_EQ(got.evicted_id, want.evicted_id) << where;
    }
    ExpectAgrees(store, model, ids, registered, step + 3, where);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(store.num_slots(), slots) << where;
    if (registered) {
      EXPECT_EQ(&store.SlotAt(0), slab) << where;
    }
  }
}

TEST(EntryStoreTest, MatchesReferenceModelOnRegisteredIds) {
  for (size_t capacity : {0, 1, 2, 8}) {
    for (uint64_t seed : {11, 12, 13}) {
      RunDifferential(capacity, /*registered=*/true, seed);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EntryStoreTest, MatchesReferenceModelOnBareIds) {
  for (size_t capacity : {0, 1, 2, 8}) {
    for (uint64_t seed : {21, 22, 23}) {
      RunDifferential(capacity, /*registered=*/false, seed);
      if (HasFatalFailure()) return;
    }
  }
}

// A bare id registered after it was cached keeps its entry, and its slot
// has mirrored every change all along, so the lock-free read agrees with
// Find as soon as the id is registered.
TEST(EntryStoreTest, RegisteringACachedBareIdPublishesItsEntry) {
  EntryStore store(2);
  CachedApprox approx;
  approx.base = Interval(1.0, 3.0);
  ASSERT_TRUE(store.Offer(4, approx, 2.0));
  Interval visible;
  EXPECT_FALSE(store.HasSlot(4));
  EXPECT_EQ(store.TryVisibleInterval(4, 0, &visible), SnapshotRead::kMiss);

  ASSERT_TRUE(store.RegisterSlot(4));
  EXPECT_FALSE(store.RegisterSlot(4)) << "duplicate registration rejected";
  EXPECT_EQ(store.num_slots(), 1u);
  ASSERT_EQ(store.TryVisibleInterval(4, 0, &visible), SnapshotRead::kHit);
  EXPECT_EQ(visible, approx.base);
  ASSERT_NE(store.Find(4), nullptr);
  EXPECT_EQ(store.Find(4)->raw_width, 2.0);
}

// -- change detection: only watched ids are reported ---------------------

/// Drains `table`'s dirty ids into a fresh vector.
std::vector<int> Drain(ProtocolTable& table) {
  std::vector<int> ids;
  table.DrainDirtyIds(&ids);
  return ids;
}

TEST(ProtocolTableTest, DrainReportsAppliedOfferOfWatchedId) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ASSERT_TRUE(table.SetWatched(0, true));
  EXPECT_FALSE(table.SetWatched(9, true)) << "no slot, nothing to watch";
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());

  table.OfferInitial(0, cell, 0.0, 0);
  EXPECT_TRUE(table.has_changes());
  // Two changes in one drain window report the id once.
  ASSERT_TRUE(table.OnValueTick(0, cell, 0.6, 1).refreshed);
  EXPECT_EQ(Drain(table), std::vector<int>{0});
  EXPECT_FALSE(table.has_changes());
  EXPECT_TRUE(Drain(table).empty());

  // The dedup resets with the window: the next change reports again.
  table.Pull(0, cell, 0.6, 2);
  EXPECT_EQ(Drain(table), std::vector<int>{0});
}

TEST(ProtocolTableTest, DrainReportsWatchedIdEvictedByUnwatchedOffer) {
  ProtocolTable table(TableConfig(1), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ASSERT_TRUE(table.Register(1));
  ASSERT_TRUE(table.SetWatched(0, true));

  AdaptivePolicyParams wide = DeterministicParams();
  wide.initial_width = 8.0;
  ProtocolCell wide_cell = MakeCell(0.0, wide);
  ProtocolCell narrow_cell = MakeCell(0.0, DeterministicParams());
  table.OfferInitial(0, wide_cell, 0.0, 0);
  EXPECT_EQ(Drain(table), std::vector<int>{0});

  // The narrower offer of unwatched id 1 evicts watched id 0: id 0's
  // visible interval widened to unbounded, which its subscribers must
  // hear about; id 1's own change is not reported.
  table.OfferInitial(1, narrow_cell, 0.0, 1);
  ASSERT_EQ(table.Find(0), nullptr);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_TRUE(table.has_changes());
  EXPECT_EQ(Drain(table), std::vector<int>{0});
}

TEST(ProtocolTableTest, DrainReportsNothingForChargedButLostPush) {
  ProtocolTable table(TableConfig(4, /*push_loss_probability=*/1.0),
                      /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ASSERT_TRUE(table.SetWatched(0, true));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());

  ValueTickOutcome outcome = table.OnValueTick(0, cell, 5.0, 1);
  ASSERT_TRUE(outcome.refreshed);
  ASSERT_TRUE(outcome.lost);
  // The cache never saw the push, so nothing it holds changed.
  EXPECT_FALSE(table.has_changes());
  EXPECT_TRUE(Drain(table).empty());
}

TEST(ProtocolTableTest, DrainReportsNothingForUnwatchedId) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ASSERT_TRUE(table.Register(1));
  ASSERT_TRUE(table.SetWatched(1, true));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());

  table.Pull(0, cell, 0.0, 1);
  // The change is noted — the subscription layer's clock still advances
  // — but the unwatched id itself is not reported.
  EXPECT_TRUE(table.has_changes());
  EXPECT_TRUE(Drain(table).empty());
  EXPECT_FALSE(table.has_changes());
}

TEST(ProtocolTableTest, DrainReportsNothingAfterWatchIsReleased) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());
  ASSERT_TRUE(table.SetWatched(0, true));
  table.Pull(0, cell, 0.0, 1);
  EXPECT_EQ(Drain(table), std::vector<int>{0});

  ASSERT_TRUE(table.SetWatched(0, false));
  table.Pull(0, cell, 0.0, 2);
  EXPECT_TRUE(table.has_changes());
  EXPECT_TRUE(Drain(table).empty());
}

}  // namespace
}  // namespace apc
