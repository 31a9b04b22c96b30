#ifndef APC_SUBSCRIBE_SUBSCRIPTION_TABLE_H_
#define APC_SUBSCRIBE_SUBSCRIPTION_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/interval.h"
#include "query/aggregate.h"

namespace apc {

/// One standing precision-bounded query: a point read (a single-id query)
/// or a SUM/AVG/MAX/MIN aggregate, with its own precision bound δ_sub and
/// the delivery state the manager maintains for it. Per-subscriber
/// precision requirements vary over time (the dynamic-precision-scaling
/// observation), so `delta` is mutable via Reprecision — live, without
/// re-registration.
struct Subscription {
  int64_t sub_id = 0;
  /// The standing query. `query.constraint` mirrors `delta` so the spec
  /// can be handed to an engine's query path unchanged.
  Query query;
  /// Current precision bound δ_sub — the target the manager escalates
  /// toward (at most one escalation per value per tick, the shared-
  /// refresh cap). Validity comes first: an answer that MOVED ships even
  /// when still wider than this, and a bound unattainable under the cap
  /// is met on a later interval change, when escalation is eligible
  /// again.
  double delta = 0.0;
  /// Epoch of the last queued notification (0 = none yet). Strictly
  /// increasing per subscription; notification `epoch` fields match.
  int64_t epoch = 0;
  /// Last queued answer interval and its compute tick — "what the
  /// subscriber holds" (or will, once its thread drains the hub).
  Interval last_answer = Interval::Unbounded();
  int64_t last_now = 0;
};

/// The standing-query registry: subscriptions by id plus the inverted
/// postings index source id → subscriptions touching it, which is what
/// turns "these ids changed" into "these subscriptions need re-evaluation"
/// without scanning the whole table.
///
/// Plain state — every method requires the owning SubscriptionManager's
/// mutex (or single-threaded use). Never blocks, never charges.
///
/// The "caller holds the manager's mutex" contract is enforced by clang's
/// analysis AT THE OWNER: SubscriptionManager declares its table member
/// APC_GUARDED_BY(mu_), so every access to the table (including method
/// calls) requires mu_ held. The requirement cannot be spelled as
/// APC_REQUIRES here — the analysis matches capability expressions
/// structurally and cannot prove an injected mutex pointer aliases the
/// owner's member (see docs/STATIC_ANALYSIS.md, "where contracts live").
class SubscriptionTable {
 public:
  /// Registers a standing query; returns its new sub_id (> 0, unique for
  /// the table's lifetime). `query.source_ids` must be non-empty and
  /// `delta` >= 0 — the manager validates before calling. Appends to
  /// `*newly_watched` each id that had no posting before: the ids whose
  /// changes the engine must start publishing.
  int64_t Add(const Query& query, double delta,
              std::vector<int>* newly_watched);

  /// Drops `sub_id`. Returns false when unknown. Appends to `*released`
  /// each id whose posting this emptied: no standing query covers it any
  /// more, so the engine can stop publishing its changes.
  bool Remove(int64_t sub_id, std::vector<int>* released);

  /// Mutable subscription record, or nullptr when unknown.
  Subscription* Find(int64_t sub_id);
  const Subscription* Find(int64_t sub_id) const;

  /// Appends the sub_ids of every subscription touching `source_id` to
  /// `*out` (deduplicated against `*out`'s existing contents by the
  /// caller; one id's postings themselves contain no duplicates).
  void AppendSubsOf(int source_id, std::vector<int64_t>* out) const;

  size_t size() const { return subs_.size(); }
  bool empty() const { return subs_.empty(); }

  /// All live sub_ids, ascending (registration order) — the deterministic
  /// iteration order the lockstep guarantee needs.
  std::vector<int64_t> SubIds() const;

 private:
  int64_t next_id_ = 1;
  /// Ordered map semantics via sorted extraction would cost a sort per
  /// batch; instead sub_ids are handed out monotonically and SubIds()
  /// sorts, while postings keep registration order.
  std::unordered_map<int64_t, Subscription> subs_;
  std::unordered_map<int, std::vector<int64_t>> postings_;
};

}  // namespace apc

#endif  // APC_SUBSCRIBE_SUBSCRIPTION_TABLE_H_
