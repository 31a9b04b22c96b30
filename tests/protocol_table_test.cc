#include "core/protocol_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/adaptive_policy.h"
#include "core/precision_policy.h"

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
