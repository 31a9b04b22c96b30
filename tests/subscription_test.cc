// The subscription subsystem: standing precision-bounded queries over the
// concurrent engines.
//
// The acceptance bar is lockstep determinism: a 1-shard engine with one
// subscriber per source must produce, per tick, exactly the notifications
// implied by the sequential CacheSystem's interval changes — bit-for-bit
// answers, intervals, and charges (the mirror below re-derives the
// expected stream from CacheSystem state transitions alone). On top of
// that: shared-refresh amortization (one pull per value per tick no matter
// how many subscribers), live Reprecision, per-subscription ordered
// delivery under concurrency, and the no-missed-violation guarantee probed
// from a racing checker thread (the TSan targets).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/system.h"
#include "core/adaptive_policy.h"
#include "data/random_walk.h"
#include "query/constraint_gen.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "runtime/workload_driver.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 2024;

std::vector<std::unique_ptr<Source>> MakeSources(int n) {
  return BuildRandomWalkSources(n, RandomWalkParams{},
                                AdaptivePolicyParams{}, kSeed);
}

/// A source driven by an explicit series — fully deterministic dynamics
/// for the amortization and Reprecision tests (theta = 1 makes the width
/// updates themselves deterministic: always grow on value-initiated,
/// always halve on query-initiated).
std::unique_ptr<Source> SeriesSource(int id, std::vector<double> series) {
  return std::make_unique<Source>(
      id, std::make_unique<SeriesStream>(std::move(series)),
      std::make_unique<AdaptivePolicy>(AdaptivePolicyParams{}, kSeed + 7));
}

Query PointQuery(int id) {
  Query query;
  query.kind = AggregateKind::kSum;
  query.source_ids = {id};
  return query;
}

/// The no-missed-violation probe loop, run until `done`: it picks random
/// sources and checks that the held answer of `subs[id]` (0 while the
/// source has no subscription yet) contains the true value. A probe counts
/// only when no change is in flight before AND after reading the truth and
/// the held epoch did not move by the time the second in-flight check
/// passed, so a counted violation is a real missed notification. (The
/// epoch is re-read after that check: the notifier ships before it stops
/// counting a change in flight, so an evaluation that completes between
/// the two reads still shows up as a new epoch.)
void ProbeHeldAnswers(const ShardedEngine& engine,
                      const std::vector<std::atomic<int64_t>>& subs,
                      const std::atomic<bool>& done,
                      std::atomic<int64_t>* probes,
                      std::atomic<int64_t>* violations) {
  Rng rng(kSeed ^ 0xC43C);
  const SubscriptionManager& mgr = engine.subscriptions();
  const int64_t last_id = static_cast<int64_t>(subs.size()) - 1;
  while (!done.load(std::memory_order_relaxed)) {
    int id = static_cast<int>(rng.UniformInt(0, last_id));
    int64_t sub = subs[static_cast<size_t>(id)].load();
    Interval answer;
    int64_t epoch = 0;
    if (sub <= 0 || !mgr.LatestAnswer(sub, &answer, &epoch)) continue;
    if (mgr.in_flight() != 0) {
      std::this_thread::yield();
      continue;
    }
    double truth = engine.ExactValue(id);
    Interval answer_after;
    int64_t epoch_after = 0;
    if (mgr.in_flight() != 0 ||
        !mgr.LatestAnswer(sub, &answer_after, &epoch_after) ||
        epoch_after != epoch) {
      continue;
    }
    probes->fetch_add(1);
    if (!answer.Contains(truth)) violations->fetch_add(1);
  }
}

std::vector<Notification> DrainHub(NotificationHub& hub) {
  std::vector<Notification> all;
  std::vector<Notification> batch;
  while (hub.size() > 0) {
    hub.PopBatch(&batch, 256);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(SubscriptionTest, SubscribeDeliversInitialAnswerAtEpochOne) {
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 8;
  config.seed = kSeed;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);

  int64_t sub = engine.Subscribe(PointQuery(3), /*delta=*/100.0, 0);
  ASSERT_GT(sub, 0);
  std::vector<Notification> records = DrainHub(engine.notifications());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sub_id, sub);
  EXPECT_EQ(records[0].epoch, 1);
  EXPECT_EQ(records[0].now, 0);
  // A wide bound is met by the cached interval itself: no charges.
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0);
  EXPECT_LE(records[0].answer.Width(), 100.0);
  // The registration answer is the guaranteed interval, and it contains
  // the truth.
  EXPECT_TRUE(records[0].answer.Contains(engine.ExactValue(3)));
}

TEST(SubscriptionTest, SubscribeRejectsMalformedRequests) {
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 4;
  ShardedEngine engine(config, MakeSources(4));
  engine.PopulateInitial(0);

  Query empty;
  EXPECT_EQ(engine.Subscribe(empty, 1.0, 0), -1);
  EXPECT_EQ(engine.Subscribe(PointQuery(0), -1.0, 0), -1);
  EXPECT_EQ(engine.Subscribe(PointQuery(999), 1.0, 0), -1);
  Query nan_bound = PointQuery(0);
  EXPECT_EQ(engine.Subscribe(nan_bound, std::nan(""), 0), -1);
  EXPECT_EQ(
      engine.subscriptions().counters().rejected.load(), 4);
  EXPECT_EQ(engine.notifications().size(), 0u);
  EXPECT_FALSE(engine.Unsubscribe(42));
  EXPECT_FALSE(engine.Reprecision(42, 1.0, 0));
}

// THE acceptance bar (see ISSUE): one subscriber per source on a 1-shard
// engine, versus a mirror that re-derives the expected notification stream
// from the sequential CacheSystem's interval changes. Answers, intervals,
// epochs, and total charges must match bit for bit.
TEST(SubscriptionTest, LockstepNotificationsMatchCacheSystem) {
  constexpr int kSources = 24;
  constexpr int64_t kTicks = 250;

  SystemConfig sys_config;
  // One slot per source: interval changes are exactly the refreshes, so
  // the mirror can detect them by comparing visible intervals.
  sys_config.cache_capacity = kSources;

  CacheSystem sequential(sys_config, MakeSources(kSources), kSeed);
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  engine_config.seed = kSeed;
  engine_config.subscription_hub_capacity = 1 << 14;
  ShardedEngine engine(engine_config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // Per-source bounds: tight enough that escalations fire, wide enough
  // that some ticks pass without one.
  ConstraintGenerator deltas(ConstraintParams{3.0, 1.0}, kSeed ^ 0xD);
  std::vector<double> delta(kSources);
  for (double& d : delta) d = deltas.Next();

  // Mirror state: what the mirror believes each subscriber holds, plus the
  // interval it last saw per source.
  struct MirrorSub {
    Interval last = Interval::Unbounded();
    int64_t epoch = 0;
  };
  std::vector<MirrorSub> mirror(kSources);
  std::vector<Interval> seen(kSources);
  std::vector<int64_t> sub_of(kSources);

  // Evaluates source `id` on the sequential side at time `t` exactly the
  // way the manager evaluates its subscriber, appending the expected
  // notification (if any) to `expected`.
  auto mirror_eval = [&](int id, int64_t t,
                         std::vector<Notification>* expected) {
    Interval answer = sequential.table().VisibleInterval(id, t);
    if (answer.Width() > delta[static_cast<size_t>(id)]) {
      Query pull = PointQuery(id);
      pull.constraint = delta[static_cast<size_t>(id)];
      sequential.ExecuteQuery(pull, t);  // pulls iff too wide — one Cqr
      answer = sequential.table().VisibleInterval(id, t);
    }
    MirrorSub& sub = mirror[static_cast<size_t>(id)];
    bool first = sub.epoch == 0;
    bool moved = !sub.last.Contains(answer);
    bool regained = sub.last.Width() > delta[static_cast<size_t>(id)] &&
                    answer.Width() <= delta[static_cast<size_t>(id)];
    if (first || moved || regained) {
      Notification record;
      record.sub_id = sub_of[static_cast<size_t>(id)];
      record.answer = answer;
      record.epoch = ++sub.epoch;
      record.now = t;
      sub.last = answer;
      expected->push_back(record);
    }
    seen[static_cast<size_t>(id)] =
        sequential.table().VisibleInterval(id, t);
  };

  // Registration at t=0, in id order on both sides.
  std::vector<Notification> expected;
  for (int id = 0; id < kSources; ++id) {
    sub_of[static_cast<size_t>(id)] = engine.Subscribe(
        PointQuery(id), delta[static_cast<size_t>(id)], 0);
    ASSERT_GT(sub_of[static_cast<size_t>(id)], 0);
    mirror_eval(id, 0, &expected);
  }
  engine.subscriptions().WaitQuiescent();
  std::vector<Notification> actual = DrainHub(engine.notifications());
  ASSERT_EQ(actual.size(), expected.size());

  auto compare = [&](int64_t t) {
    ASSERT_EQ(actual.size(), expected.size()) << "tick " << t;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].sub_id, expected[i].sub_id) << "tick " << t;
      EXPECT_EQ(actual[i].epoch, expected[i].epoch) << "tick " << t;
      EXPECT_EQ(actual[i].now, expected[i].now) << "tick " << t;
      ASSERT_EQ(actual[i].answer, expected[i].answer)
          << "tick " << t << " sub " << expected[i].sub_id;
    }
  };
  compare(0);

  int64_t escalations_seen = 0;
  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    engine.subscriptions().WaitQuiescent();

    // Changed ids in id order (the drain order of a 1-shard tick), each
    // evaluated once — exactly the manager's batch semantics.
    expected.clear();
    for (int id = 0; id < kSources; ++id) {
      if (sequential.table().VisibleInterval(id, t) !=
          seen[static_cast<size_t>(id)]) {
        mirror_eval(id, t, &expected);
      }
    }
    actual = DrainHub(engine.notifications());
    compare(t);
    escalations_seen =
        engine.subscriptions().counters().escalations.load();
  }

  // Both paths were exercised...
  EXPECT_GT(escalations_seen, 0);
  EXPECT_GT(engine.subscriptions().counters().suppressed.load(), 0);
  // ...and the charges match bit for bit.
  sequential.costs().EndMeasurement(kTicks);
  engine.EndMeasurement(kTicks);
  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
}

// Shared-refresh amortization, pinned deterministically: four subscribers
// with unmeetably tight bounds on ONE value cost exactly one escalation
// per tick — the first too-wide subscriber pulls, the rest ride along.
TEST(SubscriptionTest, SharedRefreshOnePullServesEverySubscriber) {
  constexpr int kSubscribers = 4;
  constexpr int64_t kTicks = 6;

  // Jumps of 10 per tick: every tick escapes the shipped interval.
  std::vector<double> series(kTicks + 1);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = 10.0 * static_cast<double>(i);
  }
  std::vector<std::unique_ptr<Source>> sources;
  sources.push_back(SeriesSource(0, series));

  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 1;
  config.seed = kSeed;
  ShardedEngine engine(config, std::move(sources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  std::vector<int64_t> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(engine.Subscribe(PointQuery(0), /*delta=*/0.01, 0));
    ASSERT_GT(subs.back(), 0);
  }
  // The registration escalation's own pull published id 0, so the
  // notifier re-evaluates the subscriptions asynchronously; let it finish
  // at t=0 instead of straddling tick 1's refresh.
  engine.subscriptions().WaitQuiescent();
  // Registration: the first subscriber escalates once; the per-value
  // per-tick cap makes the other three ride the refreshed interval.
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  EXPECT_EQ(engine.subscriptions().counters().escalations.load(), 1);
  std::vector<Notification> records = DrainHub(engine.notifications());
  ASSERT_EQ(records.size(), static_cast<size_t>(kSubscribers));
  for (const Notification& record : records) {
    EXPECT_EQ(record.epoch, 1);
    EXPECT_EQ(record.answer, records.front().answer);
  }

  for (int64_t t = 1; t <= kTicks; ++t) {
    engine.TickAll(t);
    engine.subscriptions().WaitQuiescent();
    // One escalation per tick, total — not one per subscriber.
    EXPECT_EQ(engine.TotalCosts().query_refreshes, 1 + t);
    records = DrainHub(engine.notifications());
    // The value escaped, so every subscriber is renotified with the same
    // fresh guaranteed interval.
    ASSERT_EQ(records.size(), static_cast<size_t>(kSubscribers))
        << "tick " << t;
    for (const Notification& record : records) {
      EXPECT_EQ(record.epoch, 1 + t);
      EXPECT_EQ(record.answer, records.front().answer);
      EXPECT_TRUE(record.answer.Contains(engine.ExactValue(0)));
    }
  }
}

// Live re-precisioning: tightening evaluates immediately (one escalation)
// and ships once the bound is met; loosening ships nothing.
TEST(SubscriptionTest, ReprecisionTightensWithoutReregistration) {
  std::vector<std::unique_ptr<Source>> sources;
  sources.push_back(SeriesSource(0, {0.0, 0.0, 0.0}));
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 1;
  ShardedEngine engine(config, std::move(sources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // Wide bound: the initial width-1 interval satisfies it free of charge.
  int64_t sub = engine.Subscribe(PointQuery(0), /*delta=*/100.0, 0);
  ASSERT_GT(sub, 0);
  std::vector<Notification> records = DrainHub(engine.notifications());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].answer.Width(), 1.0);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0);

  // Tighten to 0.6: the width-1 interval misses it, one pull halves the
  // width to 0.5, and the newly-met bound ships at epoch 2.
  ASSERT_TRUE(engine.Reprecision(sub, 0.6, 1));
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  records = DrainHub(engine.notifications());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epoch, 2);
  EXPECT_DOUBLE_EQ(records[0].answer.Width(), 0.5);
  EXPECT_LE(records[0].answer.Width(), 0.6);

  // Loosen to 50: nothing to say, nothing charged. The escalation's own
  // pull published id 0, so the notifier re-evaluates the subscription
  // asynchronously; let it finish before taking the baseline.
  engine.subscriptions().WaitQuiescent();
  int64_t evaluations =
      engine.subscriptions().counters().evaluations.load();
  ASSERT_TRUE(engine.Reprecision(sub, 50.0, 2));
  EXPECT_EQ(engine.subscriptions().counters().evaluations.load(),
            evaluations);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  EXPECT_EQ(engine.notifications().size(), 0u);
}

TEST(SubscriptionTest, UnsubscribeStopsNotifications) {
  std::vector<std::unique_ptr<Source>> sources;
  sources.push_back(SeriesSource(0, {0.0, 10.0, 20.0, 30.0}));
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 1;
  ShardedEngine engine(config, std::move(sources));
  engine.PopulateInitial(0);

  int64_t sub = engine.Subscribe(PointQuery(0), 100.0, 0);
  ASSERT_TRUE(engine.Unsubscribe(sub));
  EXPECT_FALSE(engine.Unsubscribe(sub));  // idempotence: already gone
  for (int64_t t = 1; t <= 3; ++t) engine.TickAll(t);
  engine.subscriptions().WaitQuiescent();
  // Only the registration answer ever shipped.
  std::vector<Notification> records = DrainHub(engine.notifications());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epoch, 1);
  EXPECT_EQ(engine.subscriptions().num_subscriptions(), 0u);
}

// Aggregate subscriptions: a SUM over several sources and a MAX ship
// answers whose width meets the bound after escalation, and the answers
// always contain the true aggregate.
TEST(SubscriptionTest, AggregateSubscriptionsMeetTheirBounds) {
  constexpr int kSources = 12;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = kSources;
  config.seed = kSeed;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  Query sum;
  sum.kind = AggregateKind::kSum;
  sum.source_ids = {0, 1, 2, 3, 4, 5};
  Query max;
  max.kind = AggregateKind::kMax;
  max.source_ids = {6, 7, 8, 9, 10, 11};
  int64_t sum_sub = engine.Subscribe(sum, /*delta=*/2.0, 0);
  int64_t max_sub = engine.Subscribe(max, /*delta=*/1.0, 0);
  ASSERT_GT(sum_sub, 0);
  ASSERT_GT(max_sub, 0);
  DrainHub(engine.notifications());  // registration answers: truth at t=0

  for (int64_t t = 1; t <= 40; ++t) {
    engine.TickAll(t);
    engine.subscriptions().WaitQuiescent();
    std::vector<Notification> records = DrainHub(engine.notifications());
    // A sub spanning both shards can be notified once per shard batch; an
    // early record may predate the other shard's tick. The subscriber's
    // held answer after the drain is the NEWEST record per sub — that one
    // saw the full post-tick state and must contain the current truth.
    std::unordered_map<int64_t, Notification> newest;
    for (const Notification& record : records) {
      Notification& slot = newest[record.sub_id];
      if (record.epoch > slot.epoch) slot = record;
    }
    for (const auto& [sub_id, record] : newest) {
      double truth = 0.0;
      const Query& query = sub_id == sum_sub ? sum : max;
      if (query.kind == AggregateKind::kSum) {
        for (int id : query.source_ids) truth += engine.ExactValue(id);
      } else {
        truth = engine.ExactValue(query.source_ids.front());
        for (int id : query.source_ids) {
          truth = std::max(truth, engine.ExactValue(id));
        }
      }
      EXPECT_TRUE(record.answer.Contains(truth))
          << "tick " << t << " sub " << sub_id << " answer "
          << record.answer.ToString() << " truth " << truth;
    }
  }
  // Escalations fired for the tight bounds, and both subscribers hold a
  // bound-satisfying answer whenever precision was attainable.
  EXPECT_GT(engine.subscriptions().counters().escalations.load(), 0);
}

// Per-subscription ordered delivery under real concurrency: a ticking
// writer races a draining consumer; epochs must arrive consecutively per
// subscription with non-decreasing compute ticks. (TSan target.)
TEST(SubscriptionTest, OrderedDeliveryUnderConcurrentTicks) {
  constexpr int kSources = 32;
  constexpr int64_t kTicks = 400;
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = kSources;
  config.seed = kSeed;
  config.subscription_hub_capacity = 256;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  std::vector<int64_t> subs;
  for (int id = 0; id < kSources; ++id) {
    subs.push_back(engine.Subscribe(PointQuery(id), 4.0, 0));
    ASSERT_GT(subs.back(), 0);
  }

  std::atomic<int64_t> regressions{0};
  std::atomic<int64_t> drained{0};
  std::thread consumer([&] {
    std::unordered_map<int64_t, Notification> last;
    std::vector<Notification> batch;
    while (engine.notifications().PopBatch(&batch, 32) > 0) {
      drained.fetch_add(static_cast<int64_t>(batch.size()));
      for (const Notification& record : batch) {
        auto it = last.find(record.sub_id);
        if (it != last.end()) {
          if (record.epoch != it->second.epoch + 1 ||
              record.now < it->second.now) {
            regressions.fetch_add(1);
          }
        } else if (record.epoch != 1) {
          regressions.fetch_add(1);
        }
        last[record.sub_id] = record;
      }
    }
  });

  std::thread ticker([&] {
    for (int64_t t = 1; t <= kTicks; ++t) engine.TickAll(t);
  });
  ticker.join();
  engine.subscriptions().WaitQuiescent();
  int64_t queued = engine.subscriptions().counters().notifications.load();
  engine.subscriptions().Shutdown();  // closes the hub; consumer drains out
  consumer.join();

  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(drained.load(), queued);
  EXPECT_GT(queued, kSources);  // ticks actually produced notifications
}

// The no-missed-violation guarantee probed mid-run from a racing checker:
// whenever no change is in flight, every subscriber-held answer contains
// the true value. (TSan target.)
TEST(SubscriptionTest, NoMissedViolationUnderConcurrentTicks) {
  constexpr int kSources = 16;
  constexpr int64_t kTicks = 300;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = kSources;
  config.seed = kSeed;
  config.subscription_hub_capacity = 1 << 14;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  std::vector<std::atomic<int64_t>> subs(kSources);
  for (int id = 0; id < kSources; ++id) {
    subs[static_cast<size_t>(id)] = engine.Subscribe(PointQuery(id), 3.0, 0);
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> probes{0};
  std::atomic<int64_t> violations{0};
  std::thread checker([&] {
    ProbeHeldAnswers(engine, subs, done, &probes, &violations);
  });

  std::thread ticker([&] {
    // The quota side starts after the checker's first probe, so the ticks
    // can never all land before the checker was scheduled.
    while (probes.load() == 0) std::this_thread::yield();
    for (int64_t t = 1; t <= kTicks; ++t) engine.TickAll(t);
  });
  ticker.join();
  engine.subscriptions().WaitQuiescent();
  done.store(true);
  checker.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(probes.load(), 0);
}

// Subscribing to ids no standing query covered before, while a producer
// applies ticks and the no-missed-violation checker races both. A new id
// starts publishing its changes before the registration evaluation
// snapshots it; were the order reversed, a change landing between the two
// would leave the fresh answer stale with nothing in flight, which the
// checker counts. (TSan target.)
TEST(SubscriptionTest, SubscribeNewIdsWhileTicksApply) {
  constexpr int kSources = 16;
  constexpr int kInitial = 4;
  constexpr int64_t kTicks = 300;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = kSources;
  config.seed = kSeed;
  config.subscription_hub_capacity = 1 << 14;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  // subs[id] is 0 until source id has its subscription.
  std::vector<std::atomic<int64_t>> subs(kSources);
  for (int id = 0; id < kInitial; ++id) {
    subs[static_cast<size_t>(id)] = engine.Subscribe(PointQuery(id), 3.0, 0);
  }

  ASSERT_TRUE(engine.StartUpdatePump());
  std::atomic<bool> done{false};
  std::atomic<int64_t> probes{0};
  std::atomic<int64_t> violations{0};
  std::thread checker([&] {
    ProbeHeldAnswers(engine, subs, done, &probes, &violations);
  });
  std::thread ticker([&] {
    for (int64_t t = 1; t <= kTicks; ++t) {
      engine.bus().Push({t, UpdateEvent::kAllSources});
    }
  });
  // Spread the new registrations over the run: each waits for the ticker
  // to reach its share of the ticks, then subscribes at the tick applied.
  auto applied_ticks = [&] {
    return engine.counters().updates_applied.load() / kSources;
  };
  constexpr int kLate = kSources - kInitial;
  for (int i = 0; i < kLate; ++i) {
    const int64_t due = kTicks * (i + 1) / (kLate + 1);
    while (applied_ticks() < due) std::this_thread::yield();
    const int id = kInitial + i;
    subs[static_cast<size_t>(id)] =
        engine.Subscribe(PointQuery(id), 3.0, applied_ticks());
  }
  ticker.join();
  engine.StopUpdatePump();
  engine.subscriptions().WaitQuiescent();
  // On a loaded host the checker may not have seen a quiet instant while
  // the ticks ran; at rest nothing is in flight, so its next probe counts.
  while (probes.load() == 0) std::this_thread::yield();
  done.store(true);
  checker.join();

  EXPECT_EQ(violations.load(), 0);
  // At rest every held answer, early or late, contains the truth.
  for (int id = 0; id < kSources; ++id) {
    Interval answer;
    int64_t epoch = 0;
    ASSERT_GT(subs[static_cast<size_t>(id)].load(), 0) << "id " << id;
    ASSERT_TRUE(engine.subscriptions().LatestAnswer(
        subs[static_cast<size_t>(id)].load(), &answer, &epoch));
    EXPECT_TRUE(answer.Contains(engine.ExactValue(id))) << "id " << id;
  }
}

// The notification clock counts every change, watched or not: with one
// subscription on id 0, a later-`now` change to unwatched id 1 still
// stamps the next notification. Pinned on a deterministic 1-shard engine.
TEST(SubscriptionTest, UnwatchedChangeAdvancesNotificationClock) {
  std::vector<std::unique_ptr<Source>> sources;
  sources.push_back(SeriesSource(0, {0.0, 10.0}));
  sources.push_back(SeriesSource(1, {0.0, 10.0}));
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 2;
  config.seed = kSeed;
  ShardedEngine engine(config, std::move(sources));
  engine.PopulateInitial(0);

  int64_t sub = engine.Subscribe(PointQuery(0), /*delta=*/100.0, 0);
  ASSERT_GT(sub, 0);
  ASSERT_EQ(DrainHub(engine.notifications()).size(), 1u);

  // A pull of unwatched id 1 at now 5 changes only id 1's interval.
  engine.PointRead(1, /*max_width=*/0.0, /*now=*/5);
  engine.subscriptions().WaitQuiescent();
  EXPECT_EQ(engine.notifications().size(), 0u);

  // Id 0 then escapes at the earlier now 3: its notification carries the
  // clock's 5, not its own 3.
  engine.TickAll(3);
  engine.subscriptions().WaitQuiescent();
  std::vector<Notification> records = DrainHub(engine.notifications());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sub_id, sub);
  EXPECT_EQ(records[0].epoch, 2);
  EXPECT_EQ(records[0].now, 5);
  EXPECT_TRUE(records[0].answer.Contains(engine.ExactValue(0)));
}

/// A host that logs the manager's watch and snapshot calls in order, so
/// the watch bookkeeping is checked without an engine. It never reports
/// changes, so the notifier thread never calls it.
class RecordingHost : public SubscriptionHost {
 public:
  Interval SubscriptionSnapshot(int id, int64_t /*now*/) const override {
    log.push_back("snapshot " + std::to_string(id));
    return Interval::Exact(0.0);
  }
  Interval SubscriptionPull(int /*id*/, int64_t /*now*/) override {
    return Interval::Exact(0.0);
  }
  bool SubscriptionOwns(int id) const override { return id >= 0 && id < 8; }
  void SubscriptionWatch(const std::vector<int>& ids, bool watched) override {
    for (int id : ids) {
      log.push_back((watched ? "watch " : "release ") + std::to_string(id));
    }
  }

  mutable std::vector<std::string> log;
};

// An id is watched when its first standing query arrives, before that
// query's registration snapshot, and released when its last one leaves.
TEST(SubscriptionTest, WatchFollowsPostingsAndPrecedesSnapshot) {
  using Log = std::vector<std::string>;
  RecordingHost host;
  SubscriptionManager manager(&host, /*hub_capacity=*/16);

  Query first;
  first.kind = AggregateKind::kSum;
  first.source_ids = {0, 1, 1};  // a duplicated id is watched once
  int64_t sub_first = manager.Subscribe(first, 1.0, 0);
  ASSERT_GT(sub_first, 0);
  EXPECT_EQ(host.log,
            (Log{"watch 0", "watch 1", "snapshot 0", "snapshot 1",
                 "snapshot 1"}));

  host.log.clear();
  Query second;
  second.kind = AggregateKind::kMax;
  second.source_ids = {1, 2};
  int64_t sub_second = manager.Subscribe(second, 1.0, 0);
  ASSERT_GT(sub_second, 0);
  EXPECT_EQ(host.log, (Log{"watch 2", "snapshot 1", "snapshot 2"}))
      << "id 1 is already watched";

  host.log.clear();
  EXPECT_EQ(manager.Subscribe(PointQuery(99), 1.0, 0), -1);
  EXPECT_TRUE(host.log.empty()) << "a rejected query watches nothing";

  ASSERT_TRUE(manager.Unsubscribe(sub_first));
  EXPECT_EQ(host.log, (Log{"release 0"})) << "id 1 is still covered";

  host.log.clear();
  ASSERT_TRUE(manager.Unsubscribe(sub_second));
  EXPECT_EQ(host.log, (Log{"release 1", "release 2"}));

  host.log.clear();
  EXPECT_FALSE(manager.Unsubscribe(sub_second));
  EXPECT_TRUE(host.log.empty());
}

/// A host whose sources the test moves by hand, and whose escalation pull
/// blocks on a latch once armed — a pull queued behind a long shard hold.
class GatedHost : public SubscriptionHost {
 public:
  Interval SubscriptionSnapshot(int id, int64_t /*now*/) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshots_.at(id);
  }
  Interval SubscriptionPull(int id, int64_t /*now*/) override {
    if (armed_.load()) {
      pull_entered_.store(true);
      while (!released_.load()) std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lock(mu_);
    snapshots_[id] = Interval::Exact(snapshots_[id].lo());
    return snapshots_[id];
  }
  bool SubscriptionOwns(int id) const override { return id >= 0 && id < 2; }
  void SubscriptionWatch(const std::vector<int>& /*ids*/,
                         bool /*watched*/) override {}

  void Set(int id, const Interval& interval) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshots_[id] = interval;
  }
  void Arm() { armed_.store(true); }
  bool PullEntered() const { return pull_entered_.load(); }
  void Release() { released_.store(true); }

 private:
  mutable std::mutex mu_;
  std::unordered_map<int, Interval> snapshots_{
      {0, Interval::Exact(0.0)}, {1, Interval::Exact(0.0)}};
  std::atomic<bool> armed_{false};
  std::atomic<bool> pull_entered_{false};
  std::atomic<bool> released_{false};
};

// The notifier ships what a batch already decided before an escalation
// waits for a shard lock: sub 1 needs no escalation, sub 2 escalates, and
// while sub 2's pull is blocked, sub 1's notification is in the hub.
TEST(SubscriptionTest, DecidedNotificationsShipBeforeAnEscalationWaits) {
  GatedHost host;
  SubscriptionManager manager(&host, /*hub_capacity=*/16);
  // Destroyed before the manager: a failed assertion must not leave the
  // notifier blocked in the pull while the manager joins it.
  struct ReleaseOnExit {
    GatedHost& host;
    ~ReleaseOnExit() { host.Release(); }
  } release_on_exit{host};
  const int64_t sub_plain = manager.Subscribe(PointQuery(0), 100.0, 0);
  const int64_t sub_escalating = manager.Subscribe(PointQuery(1), 0.5, 0);
  ASSERT_EQ(sub_plain, 1);
  ASSERT_EQ(sub_escalating, 2);
  ASSERT_EQ(DrainHub(manager.hub()).size(), 2u);

  // Id 0 moves out of sub 1's answer; id 1 widens past sub 2's bound, and
  // its pull lands outside sub 2's answer.
  host.Set(0, Interval(10.0, 11.0));
  host.Set(1, Interval(5.0, 15.0));
  host.Arm();
  manager.OnIntervalChanges({0, 1}, /*now=*/1);
  while (!host.PullEntered()) std::this_thread::yield();

  std::vector<Notification> shipped;
  ASSERT_EQ(manager.hub().TryPopBatch(&shipped, 16), 1u)
      << "sub 1's notification waited for sub 2's escalation";
  EXPECT_EQ(shipped[0].sub_id, sub_plain);
  EXPECT_EQ(shipped[0].epoch, 2);

  host.Release();
  manager.WaitQuiescent();
  std::vector<Notification> rest = DrainHub(manager.hub());
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].sub_id, sub_escalating);
  EXPECT_EQ(rest[0].epoch, 2);
  EXPECT_EQ(rest[0].answer.Width(), 0.0);
  manager.Shutdown();
}

// Shutdown must not block even when the hub is full and nobody drains:
// Close fires before the notifier join, so a Push blocked on a full hub
// fails fast instead of deadlocking the engine destructor. (The ctest
// --timeout added for the notification suites turns a regression here
// into a fast failure, not a hung CI job.)
TEST(SubscriptionTest, DestructionWithFullUndrainedHubDoesNotHang) {
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 8;
  config.seed = kSeed;
  config.subscription_hub_capacity = 2;  // tiny: fills immediately
  {
    ShardedEngine engine(config, MakeSources(8));
    engine.PopulateInitial(0);
    // Two registration answers fill the hub exactly (a third Subscribe
    // would block — the documented backpressure, which is why the fill
    // below comes from ticks evaluated by the notifier thread).
    engine.Subscribe(PointQuery(0), /*delta=*/100.0, 0);
    engine.Subscribe(PointQuery(1), /*delta=*/100.0, 0);
    for (int64_t t = 1; t <= 20; ++t) engine.TickAll(t);
    // No consumer ever drains; the engine (and its manager) must still
    // destruct cleanly even if the notifier is blocked pushing into the
    // full hub.
  }
  SUCCEED();
}

// Subscriptions on the tiered engine: the regional tier is the
// subscription surface; escalations charge WAN pulls and fan out to
// edges, and the derived-precision invariant survives the traffic.
TEST(SubscriptionTest, TieredEngineServesSubscriptions) {
  constexpr int kSources = 8;
  TieredConfig config;
  config.num_edges = 2;
  config.num_shards = 1;
  config.seed = kSeed;
  TieredEngine engine(
      config, BuildRandomWalkStreams(kSources, RandomWalkParams{}, kSeed));
  engine.PopulateInitial(0);

  int64_t tight = engine.Subscribe(PointQuery(0), /*delta=*/0.05, 0);
  int64_t wide = engine.Subscribe(PointQuery(1), /*delta=*/1e6, 0);
  ASSERT_GT(tight, 0);
  ASSERT_GT(wide, 0);
  // The tight registration escalated: at least one WAN source pull.
  EXPECT_GE(engine.counters().source_pulls.load(), 1);
  EXPECT_EQ(engine.Subscribe(PointQuery(kSources + 5), 1.0, 0), -1);
  DrainHub(engine.notifications());  // registration answers: truth at t=0

  int64_t notified = 0;
  for (int64_t t = 1; t <= 50; ++t) {
    engine.TickAll(t);
    engine.subscriptions().WaitQuiescent();
    for (const Notification& record :
         DrainHub(engine.notifications())) {
      ++notified;
      int id = record.sub_id == tight ? 0 : 1;
      EXPECT_TRUE(record.answer.Contains(engine.exact_value(id)))
          << "tick " << t;
    }
    EXPECT_TRUE(engine.DerivedInvariantHolds(t)) << "tick " << t;
  }
  EXPECT_GT(notified, 0);
  ASSERT_TRUE(engine.Reprecision(wide, 2.0, 51));
  ASSERT_TRUE(engine.Unsubscribe(tight));
  EXPECT_FALSE(engine.Unsubscribe(tight));
}

}  // namespace
}  // namespace apc
