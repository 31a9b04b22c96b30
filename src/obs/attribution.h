#ifndef APC_OBS_ATTRIBUTION_H_
#define APC_OBS_ATTRIBUTION_H_

// Cost & precision attribution: per-source tallies of every refresh charge
// the protocol core records — split by cause (value- vs query-initiated,
// the paper's Cvr/Cqr sides) and, for query-initiated refreshes, by the
// READER that triggered the pull (an aggregate/point-read query vs a
// standing subscription, tagged ambiently via ReaderScope) — plus a short
// per-source time-series of the shipped bound width.
//
// Reconciliation contract (asserted by tests/attribution_test.cc): with an
// AttributionTable attached from construction and measurement started at
// tick 0, the table's refresh counts equal the engine's CostTracker
// tallies bit-for-bit — sum(value_refreshes) == CostTracker value side,
// sum(query_refreshes) == query side — and the cost totals match exactly
// (each charge is recorded with the same cvr/cqr double the tracker adds).
//
// Locking: 16 striped mutexes (rank kObsAttribution, a leaf above every
// engine/queue lock), one stripe per id hash; snapshots visit one stripe
// at a time.

#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {
namespace obs {

/// Who is reading when a query-initiated refresh is charged.
enum class ReaderKind : uint8_t {
  kNone = 0,        // no ambient reader (maintenance pulls)
  kQuery = 1,       // aggregate query / point read
  kSubscription = 2,  // standing-query evaluation or escalation
};

namespace internal {
struct ReaderTag {
  ReaderKind kind = ReaderKind::kNone;
  int64_t id = -1;
};
inline thread_local ReaderTag t_reader;
}  // namespace internal

/// RAII ambient reader tag: every query-initiated refresh charged while
/// the scope is live is attributed to (kind, reader_id). Nests; the
/// innermost scope wins.
class ReaderScope {
 public:
  ReaderScope(ReaderKind kind, int64_t reader_id) {
    saved_ = internal::t_reader;
    internal::t_reader = internal::ReaderTag{kind, reader_id};
  }
  ~ReaderScope() { internal::t_reader = saved_; }
  ReaderScope(const ReaderScope&) = delete;
  ReaderScope& operator=(const ReaderScope&) = delete;

  static ReaderKind current_kind() { return internal::t_reader.kind; }
  static int64_t current_id() { return internal::t_reader.id; }

 private:
  internal::ReaderTag saved_;
};

class AttributionTable {
 public:
  /// Width-history points retained per source (newest kept).
  static constexpr size_t kHistory = 32;

  struct WidthPoint {
    int64_t now = 0;
    double width = 0.0;
  };

  struct SourceStats {
    int id = -1;
    int64_t value_refreshes = 0;  // Cvr charges
    int64_t query_refreshes = 0;  // Cqr charges, all readers
    /// Cqr charges split by the ambient reader at charge time.
    int64_t query_reader_refreshes = 0;
    int64_t subscription_reader_refreshes = 0;
    int64_t unattributed_query_refreshes = 0;
    double value_cost = 0.0;
    double query_cost = 0.0;
    double last_width = 0.0;
    int64_t last_now = 0;
    /// Oldest-first shipped-width series (up to kHistory points).
    std::vector<WidthPoint> width_history;
  };

  struct Totals {
    int64_t value_refreshes = 0;
    int64_t query_refreshes = 0;
    int64_t query_reader_refreshes = 0;
    int64_t subscription_reader_refreshes = 0;
    int64_t unattributed_query_refreshes = 0;
    double value_cost = 0.0;
    double query_cost = 0.0;
  };

  AttributionTable() = default;
  AttributionTable(const AttributionTable&) = delete;
  AttributionTable& operator=(const AttributionTable&) = delete;

  /// One value-initiated refresh of `id`, charged `cost` (Cvr), shipping a
  /// bound of width `width` at tick `now`. Called by the protocol core at
  /// its RecordValueRefresh sites, under the owning shard's lock.
  void RecordValueRefresh(int id, double cost, double width, int64_t now);

  /// One query-initiated refresh; the ambient ReaderScope decides which
  /// reader bucket the charge lands in.
  void RecordQueryRefresh(int id, double cost, double width, int64_t now);

  /// Per-source stats, id-ascending. Consistent per source (one stripe
  /// lock each), not across sources.
  std::vector<SourceStats> Snapshot() const;

  /// Sums of every per-source tally.
  Totals TotalsSnapshot() const;

 private:
  static constexpr size_t kStripes = 16;

  struct Slot {
    int64_t value_refreshes = 0;
    int64_t query_refreshes = 0;
    int64_t query_reader_refreshes = 0;
    int64_t subscription_reader_refreshes = 0;
    int64_t unattributed_query_refreshes = 0;
    double value_cost = 0.0;
    double query_cost = 0.0;
    double last_width = 0.0;
    int64_t last_now = 0;
    WidthPoint history[kHistory];
    size_t history_head = 0;  // next write
    size_t history_size = 0;
  };

  struct Stripe {
    /// Same rank for every stripe; never held together (per-id charges
    /// touch one stripe, snapshots visit them one at a time).
    mutable Mutex mu{LockRank::kObsAttribution, "obs.attribution.mu"};
    std::vector<std::pair<int, Slot>> slots APC_GUARDED_BY(mu);
  };

  /// Finds or creates `id`'s slot within `stripe`. Requires stripe.mu so
  /// the linear probe and the possible append are atomic per stripe.
  Slot& SlotOf(Stripe& stripe, int id) APC_REQUIRES(stripe.mu);
  void RecordWidth(Slot& slot, double width, int64_t now);

  Stripe stripes_[kStripes];
};

}  // namespace obs
}  // namespace apc

#endif  // APC_OBS_ATTRIBUTION_H_
