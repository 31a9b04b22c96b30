#include "subscribe/subscription_manager.h"

#include <algorithm>
#include <cmath>

#include "obs/attribution.h"
#include "obs/trace.h"

namespace apc {

void SubscriptionCounters::RegisterWith(obs::MetricsRegistry* registry,
                                        const std::string& prefix) const {
  registry->RegisterCounter(prefix + ".notifications", &notifications);
  registry->RegisterCounter(prefix + ".evaluations", &evaluations);
  registry->RegisterCounter(prefix + ".escalations", &escalations);
  registry->RegisterCounter(prefix + ".suppressed", &suppressed);
  registry->RegisterCounter(prefix + ".rejected", &rejected);
}

SubscriptionManager::SubscriptionManager(SubscriptionHost* host,
                                         size_t hub_capacity)
    : host_(host), hub_(hub_capacity) {
  notifier_ = std::thread([this] { NotifierLoop(); });
}

void SubscriptionManager::RegisterMetrics(obs::MetricsRegistry* registry) {
  counters_.RegisterWith(registry, "subs");
  registry->RegisterHistogram("subs.delivery_lag_ticks",
                              &delivery_lag_ticks_);
  hub_.RegisterMetrics(registry, "subs.hub");
}

SubscriptionManager::~SubscriptionManager() { Shutdown(); }

int64_t SubscriptionManager::Subscribe(const Query& query, double delta,
                                       int64_t now) {
  if (query.source_ids.empty() || !(delta >= 0.0)) {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  for (int id : query.source_ids) {
    if (!host_->SubscriptionOwns(id)) {
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
  }
  MutexLock lock(mu_);
  std::vector<int> newly_watched;
  int64_t sub_id = table_.Add(query, delta, &newly_watched);
  // Ids no standing query covered until now start publishing their
  // changes BEFORE the registration evaluation snapshots them: a change
  // landing after the watch is queued, one landing before it is in the
  // snapshot. Changes predating this instant are irrelevant.
  if (!newly_watched.empty()) host_->SubscriptionWatch(newly_watched, true);
  // The registration answer ships immediately at epoch 1, so a subscriber
  // always holds an answer (and the lockstep harness has a fixed point to
  // compare from).
  EvaluateLocked(*table_.Find(sub_id), now);
  FlushOutboxLocked();
  return sub_id;
}

bool SubscriptionManager::Unsubscribe(int64_t sub_id) {
  MutexLock lock(mu_);
  std::vector<int> released;
  if (!table_.Remove(sub_id, &released)) return false;
  // The last standing query over these ids is gone: their changes stop
  // costing the write path a queued notification.
  if (!released.empty()) host_->SubscriptionWatch(released, false);
  return true;
}

bool SubscriptionManager::Reprecision(int64_t sub_id, double delta,
                                      int64_t now) {
  if (!(delta >= 0.0)) {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  MutexLock lock(mu_);
  Subscription* sub = table_.Find(sub_id);
  if (sub == nullptr) {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bool tightened = delta < sub->delta;
  sub->delta = delta;
  sub->query.constraint = delta;
  // Loosening never notifies: the held answer satisfies the looser bound
  // a fortiori. Tightening re-evaluates now — the "regained" shipping rule
  // pushes a fresh answer once the tightened bound is met.
  if (tightened) {
    EvaluateLocked(*sub, now);
    FlushOutboxLocked();
  }
  return true;
}

void SubscriptionManager::OnIntervalChanges(const std::vector<int>& ids,
                                            int64_t now) {
  // Every change advances the clock, so a notification's `now` does not
  // depend on whether the newest change hit a watched id. Within a tick
  // this is one relaxed load; only the first report of a new tick CASes.
  int64_t seen = pending_now_.load(std::memory_order_relaxed);
  while (now > seen && !pending_now_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
  // Unwatched ids only: nothing to evaluate, so no lock and no wakeup.
  if (ids.empty()) return;
  bool added = false;
  {
    MutexLock lock(pending_mu_);
    if (stop_) return;
    for (int id : ids) {
      if (pending_set_.insert(id).second) {
        pending_ids_.push_back(id);
        // Release pairs with the checker's acquire: once an engine
        // mutation is observable (its shard lock was released), its
        // change is already counted in flight.
        in_flight_.fetch_add(1, std::memory_order_release);
        added = true;
      }
    }
  }
  if (added) pending_cv_.NotifyOne();
}

void SubscriptionManager::NotifierLoop() {
  std::vector<int> batch;
  while (true) {
    int64_t now;
    {
      MutexLock lock(pending_mu_);
      while (!stop_ && pending_ids_.empty()) pending_cv_.Wait(pending_mu_);
      if (pending_ids_.empty()) break;  // stopped and drained
      batch.clear();
      batch.swap(pending_ids_);
      pending_set_.clear();
      // The enqueuer advanced the clock before taking pending_mu_, so this
      // load sees at least the `now` of every id in the batch.
      now = pending_now_.load(std::memory_order_relaxed);
      notifier_busy_ = true;
    }
    ProcessBatch(batch, now);
    {
      MutexLock lock(pending_mu_);
      notifier_busy_ = false;
      in_flight_.fetch_sub(static_cast<int64_t>(batch.size()),
                           std::memory_order_release);
    }
    quiescent_cv_.NotifyAll();
  }
  quiescent_cv_.NotifyAll();
}

void SubscriptionManager::ProcessBatch(const std::vector<int>& ids,
                                       int64_t now) {
  obs::TraceScope span(obs::SpanKind::kNotifyBatch, /*id=*/-1, now);
  MutexLock lock(mu_);
  if (table_.empty()) return;
  // Affected subscriptions, deduplicated across the batch and evaluated in
  // sub_id order — one evaluation per subscription per batch no matter how
  // many of its sources changed, and a deterministic order for the
  // lockstep harness.
  std::vector<int64_t> affected;
  for (int id : ids) table_.AppendSubsOf(id, &affected);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (int64_t sub_id : affected) {
    Subscription* sub = table_.Find(sub_id);
    if (sub != nullptr) EvaluateLocked(*sub, now);
  }
  // One hub reservation for the whole drained burst, not one per record.
  FlushOutboxLocked();
}

Interval SubscriptionManager::Answer(AggregateKind kind,
                                     const std::vector<QueryItem>& items) {
  switch (kind) {
    case AggregateKind::kSum:
      return SumInterval(items);
    case AggregateKind::kAvg:
      return AvgInterval(items);
    case AggregateKind::kMax:
      return MaxInterval(items);
    case AggregateKind::kMin:
      return MinInterval(items);
  }
  return Interval(0.0, 0.0);
}

void SubscriptionManager::EvaluateLocked(Subscription& sub, int64_t now) {
  obs::TraceScope span(obs::SpanKind::kNotifyEval, /*id=*/-1, now);
  // Tag every charge this evaluation triggers (the SubscriptionPull
  // escalations below reach the tables' Cqr charge sites with this tag
  // ambient) as subscription-initiated, attributed to this sub_id.
  obs::ReaderScope reader(obs::ReaderKind::kSubscription, sub.sub_id);
  counters_.evaluations.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::Record(obs::TraceEvent::kNotifyEvaluate, /*id=*/-1,
                             now, sub.sub_id);

  // The answer is built from guaranteed intervals, so it stays valid
  // passively until the next change event (see the class contract).
  std::vector<QueryItem> items;
  items.reserve(sub.query.source_ids.size());
  for (int id : sub.query.source_ids) {
    QueryItem item;
    item.source_id = id;
    item.interval = host_->SubscriptionSnapshot(id, now);
    items.push_back(item);
  }
  Interval answer = Answer(sub.query.kind, items);

  // Escalate while too wide: pick the item currently determining the
  // width, refresh it once (globally at most once per value per tick —
  // the shared-refresh cap), and recompute. The refreshed interval is
  // re-offered to the cache, so every other subscriber of the value gets
  // the narrower snapshot for free.
  while (answer.Width() > sub.delta) {
    int victim = -1;
    double victim_key = 0.0;
    for (size_t i = 0; i < items.size(); ++i) {
      const Interval& iv = items[i].interval;
      if (iv.Width() <= 0.0) continue;  // already exact: nothing to gain
      auto it = last_escalation_tick_.find(items[i].source_id);
      if (it != last_escalation_tick_.end() && it->second == now) {
        continue;  // per-value-per-tick escalation cap
      }
      double key;
      switch (sub.query.kind) {
        case AggregateKind::kMax:
          key = iv.hi();  // the item holding the result's upper bound
          break;
        case AggregateKind::kMin:
          key = -iv.lo();  // the item holding the result's lower bound
          break;
        default:
          key = iv.Width();  // widest-first, the SUM/AVG covering rule
          break;
      }
      if (victim < 0 || key > victim_key) {
        victim = static_cast<int>(i);
        victim_key = key;
      }
    }
    if (victim < 0) break;  // every useful escalation already spent
    int id = items[static_cast<size_t>(victim)].source_id;
    last_escalation_tick_[id] = now;
    counters_.escalations.fetch_add(1, std::memory_order_relaxed);
    Interval fresh = host_->SubscriptionPull(id, now);
    for (auto& item : items) {
      if (item.source_id == id) item.interval = fresh;
    }
    answer = Answer(sub.query.kind, items);
  }

  // Shipping rule: push when the fresh answer escapes the shipped one
  // (the held answer may no longer contain the truth), or when δ_sub is
  // newly met again after a too-wide spell; the very first evaluation
  // always ships. A contained answer is suppressed — the subscriber's
  // held answer is still valid and already within its bound.
  bool first = sub.epoch == 0;
  bool moved = !sub.last_answer.Contains(answer);
  bool regained =
      sub.last_answer.Width() > sub.delta && answer.Width() <= sub.delta;
  if (!first && !moved && !regained) {
    counters_.suppressed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++sub.epoch;
  sub.last_answer = answer;
  sub.last_now = now;
  Notification record;
  record.sub_id = sub.sub_id;
  record.answer = answer;
  record.epoch = sub.epoch;
  record.now = now;
  // Staged, not pushed: the caller flushes the whole burst with one hub
  // reservation (FlushOutboxLocked) before releasing mu_, so hub order ==
  // epoch order per subscription exactly as per-record Push gave.
  outbox_.push_back(record);
}

void SubscriptionManager::FlushOutboxLocked() {
  if (outbox_.empty()) return;
  // A full hub blocks here — backpressure onto the notifier and the APIs,
  // the UpdateBus discipline. A closed hub (shutdown) drops the tail;
  // counters and ship traces cover only what the hub accepted.
  size_t accepted = hub_.PushBatch(outbox_.data(), outbox_.size());
  if (accepted > 0) {
    counters_.notifications.fetch_add(static_cast<int64_t>(accepted),
                                      std::memory_order_relaxed);
    for (size_t i = 0; i < accepted; ++i) {
      obs::TraceRecorder::Record(obs::TraceEvent::kNotifyShip, /*id=*/-1,
                                 outbox_[i].now, outbox_[i].sub_id);
    }
  }
  outbox_.clear();
}

size_t SubscriptionManager::num_subscriptions() const {
  MutexLock lock(mu_);
  return table_.size();
}

bool SubscriptionManager::LatestAnswer(int64_t sub_id, Interval* answer,
                                       int64_t* epoch) const {
  MutexLock lock(mu_);
  const Subscription* sub = table_.Find(sub_id);
  if (sub == nullptr) return false;
  *answer = sub->last_answer;
  *epoch = sub->epoch;
  return true;
}

void SubscriptionManager::WaitQuiescent() {
  MutexLock lock(pending_mu_);
  while (!pending_ids_.empty() || notifier_busy_) {
    quiescent_cv_.Wait(pending_mu_);
  }
}

void SubscriptionManager::Shutdown() {
  MutexLock shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  // Close the hub FIRST: a notifier blocked in Push on a full hub nobody
  // drains must fail fast (the record is dropped — acceptable at
  // shutdown) or the join below would wait forever.
  hub_.Close();
  {
    MutexLock lock(pending_mu_);
    stop_ = true;
  }
  pending_cv_.NotifyAll();
  notifier_.join();  // evaluates pending changes before exiting
}

}  // namespace apc
