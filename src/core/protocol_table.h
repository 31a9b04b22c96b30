#ifndef APC_CORE_PROTOCOL_TABLE_H_
#define APC_CORE_PROTOCOL_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/interval.h"
#include "core/protocol_cell.h"
#include "util/rng.h"

namespace apc {
namespace obs {
class AttributionTable;
}  // namespace obs

/// One cached approximation together with the raw width the source retained
/// when shipping it. Eviction ordering uses raw widths: the paper is
/// explicit that the widest-interval eviction decision "is based on
/// original widths, not on 0 or ∞ widths due to thresholds".
struct ProtocolEntry {
  CachedApprox approx;
  double raw_width = 0.0;
};

/// Seqlock-protected mirror of one registered id's cached entry — the HOT
/// half of the store's hot/cold split (the authoritative entry and the
/// eviction metadata are the cold half). Writers (under the owner's
/// exclusive synchronization) bump `version` to odd, store the payload with
/// relaxed atomics, then publish an even version; readers validate the
/// version around a relaxed copy. Plain fields would be a data race;
/// atomics make the optimistic path well-defined. The struct is sized and
/// aligned to one cache line so an optimistic read touches exactly one line
/// and slots never false-share.
// contracts-lint: allow(raw-atomic) -- seqlock slot payload: the atomics
// ARE the synchronization protocol (version-validated optimistic reads),
// not a tally; a mutex here would defeat the lock-free read path.
struct alignas(64) VersionedSlot {
  std::atomic<uint32_t> version{0};
  std::atomic<bool> cached{false};
  std::atomic<double> lo{0.0};
  std::atomic<double> hi{0.0};
  std::atomic<int64_t> refresh_time{0};
  std::atomic<double> growth_coeff{0.0};
  std::atomic<double> growth_exp{0.0};
  std::atomic<double> drift_rate{0.0};
};

/// Result of an optimistic (seqlock-validated) read of one entry.
enum class SnapshotRead {
  /// A concurrent writer raced the read; nothing can be concluded — the
  /// caller must fall back to a locked read.
  kTorn,
  /// Definitive: the id is not cached (or was never registered); a query
  /// sees the unbounded interval.
  kMiss,
  /// Definitive: `*out` holds the visible interval.
  kHit,
};

/// Fixed-capacity map of interval approximations keyed by source id, with
/// the paper's eviction rule: when full, evict the entry with the largest
/// raw width — the least precise approximation contributes least to overall
/// cache precision (paper §2). An offered approximation that would itself
/// be the widest is rejected and the value simply stays uncached.
///
/// This is the storage-and-eviction half of the protocol, factored out of
/// the engines so the semantics exist once; `Cache` (cache/cache.h) is a
/// thin alias kept for direct users, and ProtocolTable composes it with
/// charging and change tracking.
///
/// Memory layout — one id index, slot-addressed arrays: every id the store
/// knows has a dense index, found through one id→index vector (a hash map
/// only for negative or huge ids). The index addresses three things: the
/// id's `VersionedSlot` in a contiguous slab (the HOT half, each slot one
/// cache line, read lock-free), its authoritative `ProtocolEntry` (the COLD
/// half, touched only under the owner's lock), and its position in a
/// compact list of the cached entries' raw widths, which is all the O(χ)
/// widest-entry scan reads. Owners that keep per-id state of their own
/// index it by the same slot index, so no layer above hashes an id either.
///
/// Registered ids (RegisterSlot) get their index at construction, in
/// registration order, and are visible to the lock-free slot readers. An
/// id offered without registration (direct `Cache` use) is a BARE id: it
/// gets an index on its first successful offer and is cached exactly like
/// a registered one, but the slot readers report it as having no slot.
/// Engines register every id they serve, so their slab and id index never
/// grow after construction — the lock-free readers rely on that.
///
/// Charging and locking contract: the store never charges costs (charging
/// is ProtocolTable's job), and every method requires the owner's external
/// synchronization — mutators exclusively, const readers at least shared.
/// The sole exceptions are the slot readers (SlotIndexOf/SlotAt/HasSlot/
/// num_slots/TryVisibleInterval): the id→index mapping is immutable once
/// registration ends, so they are safe from any thread with no lock held.
class EntryStore {
 public:
  /// What an Offer did, so callers maintaining derived state (the seqlock
  /// slots) know exactly which ids changed.
  struct OfferResult {
    /// The offered approximation is cached afterwards.
    bool cached = false;
    /// Id evicted to make room, or -1.
    int evicted_id = -1;
  };

  /// `capacity` is the paper's χ: the number of approximations held.
  explicit EntryStore(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return cached_.size(); }

  /// Returns the entry for `id`, or nullptr when not cached. The pointer
  /// is valid until the next mutating call.
  const ProtocolEntry* Find(int id) const;

  /// Offers a (re)freshed approximation. Replaces in place when `id` is
  /// already cached; inserts when below capacity; otherwise either evicts
  /// the current widest entry (when the offer is narrower) or rejects the
  /// offer. Returns true when the approximation is cached afterwards.
  bool Offer(int id, const CachedApprox& approx, double raw_width) {
    return OfferEx(id, approx, raw_width).cached;
  }

  /// Offer variant reporting the eviction, for mirrored-state maintainers.
  /// Mirrors the change into the seqlock slab: the evicted id's slot is
  /// published not-cached, then the offered id's slot is published with
  /// the fresh approximation.
  OfferResult OfferEx(int id, const CachedApprox& approx, double raw_width);

  /// Drops `id` if present (used by tests and by capacity changes). The
  /// id's slot is published not-cached.
  void Erase(int id);

  /// Id of the entry with the largest raw width, or -1 when empty. Ties
  /// keep the larger id, so the choice does not depend on storage order.
  /// Scans the compact cached list: at most χ contiguous records.
  int WidestId() const;

  /// Calls `visit(id, entry)` for every cached entry, in unspecified
  /// order. `visit` must not mutate the store.
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    for (const CachedRef& ref : cached_) {
      visit(ref.id, records_[ref.index].entry);
    }
  }

  // -- the seqlock slot slab -------------------------------------------
  // Hot read-path state, contiguous and index-addressed. Registration is
  // construction-time only (it must not race ANY other method); after it
  // ends the id→index mapping is immutable and the readers below are safe
  // from any thread with no lock held.

  /// Sentinel index: the id has no registered slot.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Gives `id` its slot, at the next index. Returns false on a duplicate
  /// registration. A bare id the store already caches keeps its index and
  /// becomes registered. Construction-time only — must not race any other
  /// method.
  bool RegisterSlot(int id);

  /// Slab index of registered `id`'s slot, or kNoSlot (unknown or bare
  /// id). Ids in [0, kDenseIdLimit) use one direct vector load — zero
  /// hashing on the optimistic read path; negative or huge ids fall back
  /// to a hash lookup.
  uint32_t SlotIndexOf(int id) const {
    uint32_t index = RawIndexOf(id);
    // kNoSlot carries kBareBit too, so one test covers both misses.
    return (index & kBareBit) != 0 ? kNoSlot : index;
  }

  /// The slot at a valid index returned by SlotIndexOf.
  const VersionedSlot& SlotAt(uint32_t index) const { return slab_[index]; }

  bool HasSlot(int id) const { return SlotIndexOf(id) != kNoSlot; }
  size_t num_slots() const { return num_slots_; }

  /// Optimistic lock-free read of registered `id`'s visible interval at
  /// `now`, validated against the slot's version. Callable from any
  /// thread with NO lock held. On kMiss (not cached, or no slot) `*out` is
  /// the unbounded interval; on kTorn it is unspecified.
  SnapshotRead TryVisibleInterval(int id, int64_t now, Interval* out) const;

 private:
  /// Ids below this use the dense id→index vector (grown to max id + 1, 4
  /// bytes per id); ids at or above it — and negative ids — use the sparse
  /// map. Chosen so a pathological sparse id can't balloon the vector.
  static constexpr size_t kDenseIdLimit = size_t{1} << 20;
  /// Set in a bare id's index-map value: the index is real, but the slot
  /// readers must not report it.
  static constexpr uint32_t kBareBit = uint32_t{1} << 31;
  /// Records' cached_pos when the id is not cached.
  static constexpr uint32_t kNotCached = UINT32_MAX;

  /// The cold half of one index: the authoritative entry (meaningful only
  /// while cached) and its position in `cached_`.
  struct Record {
    ProtocolEntry entry;
    uint32_t cached_pos = kNotCached;
  };
  /// One cached entry in the compact list the widest scan walks: its raw
  /// width (kept equal to the record's), id, and index.
  struct CachedRef {
    double raw_width;
    int id;
    uint32_t index;
  };

  /// The id's index-map value (with kBareBit for bare ids), or kNoSlot.
  uint32_t RawIndexOf(int id) const {
    if (id >= 0 && static_cast<size_t>(id) < dense_index_.size()) {
      return dense_index_[static_cast<size_t>(id)];
    }
    if (sparse_index_.empty()) return kNoSlot;
    auto it = sparse_index_.find(id);
    return it == sparse_index_.end() ? kNoSlot : it->second;
  }
  /// Index of any known id, registered or bare, or kNoSlot.
  uint32_t IndexOf(int id) const {
    uint32_t index = RawIndexOf(id);
    return index == kNoSlot ? kNoSlot : index & ~kBareBit;
  }
  /// Gives `id` the next index (a slab slot and a record) and maps it,
  /// tagged with kBareBit when `bare`. Returns the index.
  uint32_t AddIndex(int id, bool bare);
  /// Points `id`'s index-map entry at `value` (an index, maybe tagged).
  void MapId(int id, uint32_t value);
  /// Position in `cached_` of the widest entry, or kNotCached when none.
  uint32_t WidestPos() const;
  static void WriteSlot(VersionedSlot& slot, const CachedApprox& approx,
                        bool cached);

  size_t capacity_;
  std::vector<Record> records_;   // by index
  std::vector<CachedRef> cached_;  // compact; size() == cached count

  // The slab: one cache line per index, contiguous, never moved after
  // registration ends (growth only happens during registration, which is
  // single-threaded by contract, or for a bare id of a store no lock-free
  // reader holds).
  std::unique_ptr<VersionedSlot[]> slab_;
  size_t num_slots_ = 0;  // registered ids
  size_t slab_capacity_ = 0;
  std::vector<uint32_t> dense_index_;               // id -> index
  std::unordered_map<int, uint32_t> sparse_index_;  // negative / huge ids
};

/// Outcome of a value-initiated protocol step, so engines can maintain
/// their own observability counters without re-deriving the decision.
struct ValueTickOutcome {
  /// The value had escaped its shipped interval: a refresh was performed
  /// and charged (Cvr) — even when the push was then lost in transit.
  bool refreshed = false;
  /// Failure injection dropped the push: the source updated its own notion
  /// of the shipped interval, but the cache never saw the message.
  bool lost = false;
};

/// The engine-agnostic heart of the refresh protocol: the cell-driven
/// refresh/charging state machine, the capacity-χ entry store with
/// raw-width eviction, and per-entry versioned slots for optimistic
/// concurrent reads. Both the sequential CacheSystem and the concurrent
/// engine (runtime/tiered_engine.h) are thin drivers over this table,
/// which is what makes their semantics provably identical (the lockstep
/// parity tests in tests/runtime_test.cc pin the equivalence
/// bit-for-bit).
///
/// The charging discipline the paper implies and the tests enforce:
///  * a value-initiated refresh is charged Cvr when the escape is
///    detected, BEFORE failure injection decides the push's fate — the
///    source paid for the message whether or not it arrived;
///  * every query-initiated pull charges Cqr, and the fresh approximation
///    is re-offered to the cache on every pull (it may still be rejected
///    as the widest);
///  * eviction ordering uses retained raw widths, never the thresholded
///    effective widths.
///
/// Thread-compatibility contract: all mutating methods (and the
/// authoritative readers) require external synchronization by the owning
/// engine — the sequential system is single-threaded, a shard holds its
/// mutex exclusively. The exceptions may be called from any thread with NO
/// lock held: the slot-index readers (SlotOf, Registered, num_registered),
/// which read a mapping immutable after construction, and
/// `TryVisibleInterval`, which validates against the per-entry version
/// counters that every mutation bumps; a racing write yields
/// SnapshotRead::kTorn, never a mixed interval. All slot fields are
/// atomics, so the optimistic path is data-race-free (and TSan-clean) by
/// construction.
///
/// Clang's thread-safety analysis enforces this contract AT THE OWNER:
/// every engine declares its table member APC_GUARDED_BY its shard mutex,
/// so all table method calls require that mutex held. The requirement is
/// not spelled APC_REQUIRES here because the analysis matches capability
/// expressions structurally and cannot name "whichever mutex my owner
/// guards me with" (see docs/STATIC_ANALYSIS.md, "where contracts live").
/// The owners' TryVisibleInterval and slot-index call sites are the
/// sanctioned APC_NO_THREAD_SAFETY_ANALYSIS carve-outs.
class ProtocolTable {
 public:
  struct Config {
    RefreshCosts costs;
    /// Cache capacity χ (number of approximations).
    size_t capacity = 50;
    /// Probability that a value-initiated refresh message is lost in
    /// transit (failure injection; 0 disables).
    double push_loss_probability = 0.0;
  };

  /// `seed` drives the push-loss Bernoulli stream only, so seed-matched
  /// engines lose the same pushes.
  ProtocolTable(const Config& config, uint64_t seed);

  ProtocolTable(const ProtocolTable&) = delete;
  ProtocolTable& operator=(const ProtocolTable&) = delete;

  /// Registers `id` before any concurrent access; gives it the next slot
  /// index (its versioned read slot, its entry record, and its change
  /// flags, unwatched). Returns false on a duplicate id. Charge-free.
  /// Slot indices follow registration order, so an owner that appends its
  /// per-id state (sources, cells) in the same order can index that state
  /// by SlotOf and keep no id map of its own. The id→slot mapping is
  /// immutable afterwards, which is what lets the slot readers run without
  /// any lock; registration itself is construction-time only and must not
  /// race any other method. Every id the table will ever be offered must
  /// be registered.
  bool Register(int id) {
    if (!store_.RegisterSlot(id)) return false;
    size_t slot = store_.SlotIndexOf(id);
    if (change_flags_.size() <= slot) change_flags_.resize(slot + 1, 0);
    return true;
  }
  /// Slot index of registered `id`, or EntryStore::kNoSlot. Charge-free
  /// and safe without the owner's lock once construction ends (the
  /// id→slot mapping is immutable afterwards): one vector load for dense
  /// ids.
  uint32_t SlotOf(int id) const { return store_.SlotIndexOf(id); }
  /// Charge-free and safe without the owner's lock once construction ends.
  bool Registered(int id) const { return store_.HasSlot(id); }
  /// Charge-free; safe without the owner's lock after construction.
  size_t num_registered() const { return store_.num_slots(); }

  // -- the protocol state machine ------------------------------------

  /// Ships `cell`'s initial approximation of `value` free of charge
  /// (initial cache population; warm-up absorbs the cost). Requires the
  /// owner's synchronization (held exclusively).
  void OfferInitial(int id, ProtocolCell& cell, double value, int64_t now);

  /// Value-initiated step: if `value` escaped the cell's shipped interval,
  /// charges Cvr, refreshes the cell, and offers the fresh approximation —
  /// unless failure injection drops the push, in which case the charge
  /// stands and the cache keeps (or keeps lacking) the stale entry. A
  /// still-valid value charges nothing. Requires the owner's
  /// synchronization (held exclusively).
  ValueTickOutcome OnValueTick(int id, ProtocolCell& cell, double value,
                               int64_t now);

  /// Query-initiated pull of the exact `value`: charges Cqr, refreshes the
  /// cell, re-offers the fresh approximation, and returns `value`.
  /// Requires the owner's synchronization (held exclusively).
  double Pull(int id, ProtocolCell& cell, double value, int64_t now);

  // -- derived tiers ----------------------------------------------------
  // A derived tier (hierarchy §5, the tiered runtime) caches approximations
  // of approximations: its intervals are hulls containing a parent tier's
  // interval, built by the engine rather than by a cell's MakeApprox. The
  // charging discipline is the same per hop — these entry points exist so
  // the seqlock slot mirroring and the charged-but-lost rule stay in the
  // core instead of being re-implemented per engine.

  /// Installs a derived approximation free of charge (initial population
  /// of a derived tier, absorbed by warm-up like OfferInitial). Requires
  /// the owner's synchronization (held exclusively).
  void OfferDerivedInitial(int id, const CachedApprox& approx,
                           double raw_width);

  /// Derived-tier refresh: charges per `type` — Cvr for a value-initiated
  /// push (the parent's data moved), Cqr for a query-initiated install
  /// (the reply of an escalated read) — then offers `approx`. A
  /// value-initiated push may be dropped by failure injection AFTER being
  /// charged, exactly like OnValueTick's charged-but-lost rule;
  /// query-initiated installs are read replies and are never dropped.
  /// Requires the owner's synchronization (held exclusively).
  ValueTickOutcome OfferDerived(int id, const CachedApprox& approx,
                                double raw_width, RefreshType type);

  // -- reads ----------------------------------------------------------

  /// The interval a query sees for `id` at `now`: the cached interval, or
  /// the unbounded interval when not cached. Charge-free (reads never
  /// charge; only pulls do). Authoritative; requires the owner's
  /// synchronization (shared suffices — nothing is mutated).
  Interval VisibleInterval(int id, int64_t now) const;

  /// Optimistic lock-free read of `id`'s visible interval: charge-free and
  /// callable from any thread with NO lock held (see the class contract).
  /// On kMiss `*out` is the unbounded interval; on kTorn `*out` is
  /// unspecified and the caller must retry under the owner's lock.
  SnapshotRead TryVisibleInterval(int id, int64_t now, Interval* out) const {
    return store_.TryVisibleInterval(id, now, out);
  }

  // -- cache view -------------------------------------------------------
  // Charge-free authoritative readers; all require the owner's
  // synchronization (shared suffices), except capacity(), which is
  // immutable after construction and safe anywhere.
  const ProtocolEntry* Find(int id) const { return store_.Find(id); }
  size_t size() const { return store_.size(); }
  size_t capacity() const { return store_.capacity(); }
  int WidestId() const { return store_.WidestId(); }
  /// Calls `visit(id, entry)` for every cached entry (EntryStore's
  /// visitor).
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const {
    store_.ForEachEntry(std::forward<Visit>(visit));
  }

  // -- change detection (the subscription hook) -------------------------
  // The write path records which WATCHED ids' cached visible state changed
  // — an offer that was applied, or an eviction — so engines can feed
  // standing queries (src/subscribe/) without re-deriving the protocol's
  // decisions. An id is watched while a standing subscription covers it;
  // the flag lives in a per-slot byte indexed like the seqlock slab, so
  // the filter costs one dense-index load and no hashing. A change to an
  // unwatched id records only that something changed, which engines
  // forward so the subscription layer's clock still advances.

  /// Marks registered `id` watched (its changes are recorded as dirty ids)
  /// or unwatched. Returns false, changing nothing, when `id` has no slot.
  /// Unwatching an id that is already dirty keeps it in the current drain
  /// window. Requires the owner's synchronization (held exclusively).
  bool SetWatched(int id, bool watched);

  /// Moves the watched ids whose cached visible interval changed since the
  /// last drain into `*out` (appended; deduplicated per drain window, in
  /// first-dirtied order) and clears has_changes(). Requires the owner's
  /// synchronization (held exclusively). A lost push dirties nothing — the
  /// cache never saw it.
  void DrainDirtyIds(std::vector<int>* out);
  /// True when any id — watched or not — changed since the last drain.
  bool has_changes() const { return changed_; }

  // -- charging and observability --------------------------------------
  // The trackers themselves are plain state: reading or mutating them
  // (Begin/EndMeasurement included) requires the owner's synchronization,
  // exclusive for the non-const accessor.
  CostTracker& costs() { return costs_; }
  const CostTracker& costs() const { return costs_; }
  int64_t lost_pushes() const { return lost_pushes_; }

  /// Attaches a per-source attribution sink (non-owning; nullptr detaches):
  /// every refresh charge is mirrored to it — same count, same cvr/cqr
  /// cost, the shipped raw width, the charge tick — so attribution totals
  /// reconcile bit-for-bit with the CostTracker (tests/attribution_test.cc
  /// pins this). The sink must outlive the table or the next SetAttribution
  /// call. Requires the owner's synchronization (held exclusively); charge
  /// sites call the sink under the same synchronization.
  void SetAttribution(obs::AttributionTable* sink) { attribution_ = sink; }
  obs::AttributionTable* attribution() const { return attribution_; }

 private:
  /// Offers to the store (which mirrors the change into its seqlock slab)
  /// and records the trace + dirty-id consequences.
  void OfferMirrored(int id, const CachedApprox& approx, double raw_width);
  void MarkDirty(int id);

  /// change_flags_ bits: a subscription covers the id / the id is already
  /// in dirty_ids_ this drain window (the dedup, without a hash set).
  static constexpr uint8_t kWatched = 1;
  static constexpr uint8_t kDirty = 2;

  Config config_;
  EntryStore store_;
  CostTracker costs_;
  obs::AttributionTable* attribution_ = nullptr;  // non-owning
  Rng rng_;
  int64_t lost_pushes_ = 0;
  std::vector<uint8_t> change_flags_;  // by slab index, like the slots
  std::vector<int> dirty_ids_;         // watched, first-dirtied order
  bool changed_ = false;               // any id changed since the drain
};

}  // namespace apc

#endif  // APC_CORE_PROTOCOL_TABLE_H_
