#ifndef APC_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_
#define APC_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "query/aggregate.h"
#include "subscribe/notification_hub.h"
#include "subscribe/subscription_table.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {

/// The engine surface the subscription manager drives — implemented by
/// ShardedEngine (over its shards) and TieredEngine (over its regional
/// tier), which is how both engines get subscriptions from one manager.
class SubscriptionHost {
 public:
  virtual ~SubscriptionHost() = default;

  /// Charge-free snapshot of the guaranteed (cached) interval of `id` at
  /// `now` — the unbounded interval when not cached. Thread-safe.
  virtual Interval SubscriptionSnapshot(int id, int64_t now) const = 0;

  /// Escalation: performs one query-initiated refresh of `id` (charged per
  /// the engine's semantics — Cqr on the sharded engine, a WAN Cqr plus
  /// LAN fan-out on the tiered engine) and returns the POST-refresh
  /// guaranteed interval. Thread-safe; never called with the manager's
  /// host-side locks held.
  virtual Interval SubscriptionPull(int id, int64_t now) = 0;

  /// True when the engine hosts `id` (Subscribe-time validation).
  virtual bool SubscriptionOwns(int id) const = 0;

  /// Watches (`watched` true) or releases each of `ids` on the write path:
  /// a watched id's changes are handed to OnIntervalChanges, an unwatched
  /// id's changes only advance the notifier's clock. The manager watches an id
  /// when its first standing query arrives — before the registration
  /// evaluation snapshots it, so no change can fall between snapshot and
  /// watch — and releases it when the last one leaves. Takes each id's
  /// owning shard lock exclusively; called with the manager mutex held
  /// (lock order: manager mutex → shard locks, same as SubscriptionPull).
  virtual void SubscriptionWatch(const std::vector<int>& ids,
                                 bool watched) = 0;
};

/// Tallies observable without the manager's mutex. The fields are striped
/// obs::Counters, exact at any quiescent point.
struct SubscriptionCounters {
  /// Notifications queued into the hub (including registration answers).
  obs::Counter notifications;
  /// Subscription re-evaluations triggered by interval changes or API
  /// calls (each recomputes one standing query's answer from snapshots).
  obs::Counter evaluations;
  /// Escalations: query-initiated refreshes the manager charged to narrow
  /// a too-wide answer. Capped at one per value per tick — the shared-
  /// refresh amortization bound.
  obs::Counter escalations;
  /// Evaluations whose fresh answer was contained in the already-shipped
  /// one: the subscriber's held answer is still valid, nothing is pushed.
  obs::Counter suppressed;
  /// Subscribe/Reprecision requests rejected up front (unknown id, empty
  /// query, invalid bound).
  obs::Counter rejected;

  /// Registers every field with `registry` under "<prefix>." names.
  /// Non-owning; this struct must outlive the registry's snapshots.
  void RegisterWith(obs::MetricsRegistry* registry,
                    const std::string& prefix) const;
};

/// The continuous-query layer over the refresh protocol: standing
/// precision-bounded queries evaluated push-style from the core's
/// change-detection hook, with one NotificationHub fanning fresh answers
/// out to subscriber threads.
///
/// Semantics. Every shipped answer is the aggregate of the GUARANTEED
/// (cached) intervals of the subscription's sources — never a bare exact
/// value — so an answer stays valid passively: as long as no interval
/// change fires, the protocol's validity guarantee (value ∈ cached
/// interval, under reliable delivery) keeps the true answer inside the
/// shipped interval. A notification is queued exactly when the fresh
/// answer escapes the shipped one (the subscriber's held answer may have
/// gone stale) or when the subscription's bound δ_sub is newly met again
/// (precision recovered after a too-wide spell). This is what makes the
/// no-missed-violation guarantee hold: "a subscriber never holds an
/// answer whose true value has exited the shipped interval without a
/// queued notification" — qualified, like the protocol itself, by
/// reliable delivery (push loss breaks validity upstream of this layer).
///
/// Shared-refresh amortization. A change is evaluated once per affected
/// subscription, but refreshes are shared: one escalation (query-initiated
/// refresh) re-offers a fresh interval that every subscriber of the value
/// snapshots, and a per-value-per-tick cap guarantees remaining too-wide
/// subscribers trigger at most ONE escalation per value per tick — the
/// repeated δ_sub-driven escalations then shrink the value's width through
/// the normal adaptive-policy feedback until pushes alone satisfy the
/// tightest subscriber, exactly the workload-driven width adaptation the
/// paper runs on, amortized across all subscribers instead of re-derived
/// per polling client.
///
/// Threading. OnIntervalChanges (the engine-facing side) only
/// enqueues — it is called under engine shard locks, and only for ids
/// some subscription covers (the manager keeps the engine's per-id watch
/// flags in step with the table's postings via SubscriptionWatch); a
/// dedicated notifier thread drains the pending ids, re-evaluates
/// affected subscriptions in sub_id order, and pushes notifications in
/// per-subscription epoch order (all hub pushes happen under the manager
/// mutex). A full hub therefore backpressures the notifier and the
/// Subscribe/Reprecision APIs.
/// Lock order: manager mutex → engine shard locks; the engine calls
/// OnIntervalChanges with shard locks held and it takes only the (leaf)
/// pending-queue mutex, and only when a watched id changed.
class SubscriptionManager {
 public:
  /// `host` must outlive the manager. `hub_capacity` bounds the hub
  /// (clamped to >= 1).
  SubscriptionManager(SubscriptionHost* host, size_t hub_capacity);
  ~SubscriptionManager();

  SubscriptionManager(const SubscriptionManager&) = delete;
  SubscriptionManager& operator=(const SubscriptionManager&) = delete;

  // -- the standing-query API ------------------------------------------

  /// Registers a standing query with bound `delta` (`query.constraint` is
  /// ignored; `delta` is the subscription's bound). Evaluates it
  /// immediately — escalating if the current answer is too wide — and
  /// queues the initial answer at epoch 1. Returns the positive sub_id, or
  /// -1 when the query is empty, `delta` is negative/NaN, or any source id
  /// is not hosted by the engine (counted in counters().rejected).
  int64_t Subscribe(const Query& query, double delta, int64_t now);

  /// Drops the subscription. Returns false when unknown. Already-queued
  /// notifications stay in the hub.
  bool Unsubscribe(int64_t sub_id);

  /// Live re-precisioning without re-registration: replaces the bound.
  /// Tightening re-evaluates immediately (escalating if eligible under
  /// the per-value-per-tick cap) and notifies when the tightened bound is
  /// met by a fresh answer; if the cap was already spent this tick, the
  /// bound is pursued on the subscription's next change-driven
  /// evaluation — re-evaluation is change-driven throughout, so a source
  /// whose interval never changes again leaves the held (still valid)
  /// answer at its old width. Loosening never notifies (the held answer
  /// satisfies the looser bound a fortiori). Returns false when the
  /// sub_id is unknown or `delta` invalid.
  bool Reprecision(int64_t sub_id, double delta, int64_t now);

  // -- the engine-facing hook ------------------------------------------

  /// The consumer side of the protocol core's change-detection hook
  /// (ProtocolTable::DrainDirtyIds): the engine drains the WATCHED ids
  /// whose cached visible interval changed at logical time `now` and hands
  /// them here. An empty `ids` reports changes to unwatched ids only: the
  /// call advances the notifier's clock to `now` and takes no lock — that
  /// is the write path's cost for every id no standing query covers; only
  /// a non-empty `ids` takes the pending-queue mutex.
  ///
  /// Contract: the engine calls this WHILE it still holds the lock that
  /// covered the mutation, so it only enqueues (never evaluates, never
  /// calls back into the engine) — that is what makes "the change is
  /// pending before the mutation is observable" hold, which the
  /// no-missed-violation checker relies on. Thread-safe; blocks on nothing
  /// beyond the short pending-queue mutex.
  void OnIntervalChanges(const std::vector<int>& ids, int64_t now);

  // -- delivery and observability --------------------------------------

  NotificationHub& hub() { return hub_; }
  const SubscriptionCounters& counters() const { return counters_; }
  size_t num_subscriptions() const;

  /// Registers the subscription tallies (under "subs."), the delivery-lag
  /// histogram ("subs.delivery_lag_ticks"), and the hub's traffic metrics
  /// ("subs.hub.") with `registry`. Non-owning; call during engine
  /// construction.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// Records one delivered notification's lag (drain-time tick minus the
  /// record's compute tick) into the delivery-lag histogram. Called by
  /// subscriber/drainer threads; lock-free.
  void RecordDeliveryLag(double ticks) { delivery_lag_ticks_.Record(ticks); }
  const obs::HistogramMetric& delivery_lag_histogram() const {
    return delivery_lag_ticks_;
  }

  /// Changes enqueued or mid-evaluation. 0 means every change handed to
  /// OnIntervalChanges has been fully evaluated (its notifications are in
  /// the hub). The no-missed-violation checker gates on this.
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Latest QUEUED answer and epoch of `sub_id` (what the subscriber
  /// holds, or will once it drains the hub). False when unknown.
  bool LatestAnswer(int64_t sub_id, Interval* answer, int64_t* epoch) const;

  /// Blocks until every pending change has been evaluated (in_flight()
  /// transitions to 0). The lockstep determinism harness calls this after
  /// each synchronous tick before draining the hub.
  void WaitQuiescent();

  /// Closes the hub (consumers drain the backlog, then PopBatch returns
  /// 0; records evaluated from here on are dropped), then stops the
  /// notifier after it evaluates the pending changes. Closing first keeps
  /// shutdown non-blocking even when the hub is full and nobody drains.
  /// Idempotent; called by the destructor.
  void Shutdown();

 private:
  void NotifierLoop();
  /// Drains `ids` into affected subscriptions and evaluates each.
  void ProcessBatch(const std::vector<int>& ids, int64_t now);
  /// Recomputes `sub`'s answer from guaranteed-interval snapshots,
  /// escalating (at most once per value per tick, globally) while the
  /// answer is too wide, and stages a notification in `outbox_` per the
  /// shipping rule. Flushes the outbox before each escalation's pull;
  /// callers flush the rest before releasing mu_, so hub order == epoch
  /// order per subscription is preserved.
  void EvaluateLocked(Subscription& sub, int64_t now) APC_REQUIRES(mu_);
  /// Ships everything staged in `outbox_` with ONE hub reservation
  /// (NotificationHub::PushBatch) instead of one lock round-trip per
  /// record, then clears the outbox. Counters and ship traces cover
  /// exactly the accepted records, as per-record Push did.
  void FlushOutboxLocked() APC_REQUIRES(mu_);
  /// The aggregate of `items` for `kind`.
  static Interval Answer(AggregateKind kind,
                         const std::vector<QueryItem>& items);

  SubscriptionHost* const host_;
  NotificationHub hub_;
  SubscriptionCounters counters_;
  /// Ticks between an answer's compute tick and its drain from the hub,
  /// recorded by consumers via RecordDeliveryLag. Log-spaced with a [0, 1)
  /// underflow bin, so same-tick deliveries participate in quantiles.
  obs::HistogramMetric delivery_lag_ticks_{1.0, 4096.0, 48};

  /// Subscriptions, epochs, escalation ledger. Rank kSubscriptionManager:
  /// taken BEFORE engine shard locks (SubscriptionWatch /
  /// SubscriptionPull / snapshot evaluation run under it).
  mutable Mutex mu_{LockRank::kSubscriptionManager, "subs.mu"};
  SubscriptionTable table_ APC_GUARDED_BY(mu_);
  /// Last tick each value was escalated at — the per-value-per-tick cap.
  std::unordered_map<int, int64_t> last_escalation_tick_ APC_GUARDED_BY(mu_);
  /// Notifications staged by EvaluateLocked awaiting the batched flush —
  /// appended in evaluation order, shipped FIFO by FlushOutboxLocked
  /// before mu_ is released (capacity is retained across bursts).
  std::vector<Notification> outbox_ APC_GUARDED_BY(mu_);

  /// The notifier's clock: the latest `now` any engine change reported,
  /// watched or not. Each batch is evaluated at its value when drained.
  // contracts-lint: allow(raw-atomic) -- lock-free running maximum the
  // write path advances on every change batch, including the unwatched
  // ones that must not take pending_mu_; not an observability tally.
  std::atomic<int64_t> pending_now_{0};

  /// OnIntervalChanges's lock. Rank kSinkPending: the engine calls it
  /// with shard locks held (kEngineShard/kEdgeShard -> kSinkPending), and
  /// nothing below it is acquired while it is held.
  Mutex pending_mu_{LockRank::kSinkPending, "subs.pending_mu"};
  CondVar pending_cv_;
  CondVar quiescent_cv_;
  std::vector<int> pending_ids_ APC_GUARDED_BY(pending_mu_);
  std::unordered_set<int> pending_set_ APC_GUARDED_BY(pending_mu_);
  bool stop_ APC_GUARDED_BY(pending_mu_) = false;
  bool notifier_busy_ APC_GUARDED_BY(pending_mu_) = false;
  // contracts-lint: allow(raw-atomic) -- quiescence gate read lock-free by
  // the no-missed-violation checker; not an observability tally.
  std::atomic<int64_t> in_flight_{0};

  /// Started in the constructor, joined exactly once under shutdown_mu_;
  /// never touched elsewhere, so it carries no guard of its own.
  std::thread notifier_;
  bool shut_down_ APC_GUARDED_BY(shutdown_mu_) = false;
  /// Rank kControl: Shutdown closes the hub (kQueue) and drains the
  /// pending leaf (kSinkPending) under it.
  Mutex shutdown_mu_{LockRank::kControl, "subs.shutdown_mu"};
};

}  // namespace apc

#endif  // APC_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_
