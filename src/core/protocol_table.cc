#include "core/protocol_table.h"

#include <cassert>

#include "obs/attribution.h"
#include "obs/trace.h"

namespace apc {

const ProtocolEntry* EntryStore::Find(int id) const {
  uint32_t index = IndexOf(id);
  const Record* record = index == kNoSlot ? nullptr : &records_[index];
  bool hit = record != nullptr && record->cached_pos != kNotCached;
  return hit ? &record->entry : nullptr;
}

uint32_t EntryStore::WidestPos() const {
  // Largest raw width, ties to the larger id: the choice does not depend
  // on list order, which is what lets Erase swap-remove.
  uint32_t widest = kNotCached;
  int widest_id = -1;
  double widest_width = -1.0;
  for (size_t pos = 0; pos < cached_.size(); ++pos) {
    const CachedRef& ref = cached_[pos];
    if (ref.raw_width > widest_width ||
        (ref.raw_width == widest_width && ref.id > widest_id)) {
      widest = static_cast<uint32_t>(pos);
      widest_id = ref.id;
      widest_width = ref.raw_width;
    }
  }
  return widest;
}

int EntryStore::WidestId() const {
  uint32_t pos = WidestPos();
  return pos == kNotCached ? -1 : cached_[pos].id;
}

EntryStore::OfferResult EntryStore::OfferEx(int id, const CachedApprox& approx,
                                            double raw_width) {
  uint32_t index = IndexOf(id);
  OfferResult result{true, -1};
  uint32_t pos;
  if (index != kNoSlot && records_[index].cached_pos != kNotCached) {
    pos = records_[index].cached_pos;  // replace in place
  } else if (cached_.size() < capacity_) {
    pos = static_cast<uint32_t>(cached_.size());
    cached_.push_back({});
  } else {
    pos = WidestPos();  // kNotCached when χ == 0
    // "the modified approximation may still be the widest and remain
    // uncached" — ties keep the incumbent to avoid pointless churn.
    if (pos == kNotCached || raw_width >= cached_[pos].raw_width) {
      return {false, -1};
    }
    const CachedRef& evicted = cached_[pos];
    records_[evicted.index].cached_pos = kNotCached;
    result.evicted_id = evicted.id;
    // Unpublished before the offered slot is published, so no reader sees
    // both cached at once.
    WriteSlot(slab_[evicted.index], CachedApprox{}, /*cached=*/false);
  }
  if (index == kNoSlot) index = AddIndex(id, /*bare=*/true);
  Record& record = records_[index];
  record.entry = ProtocolEntry{approx, raw_width};
  record.cached_pos = pos;
  cached_[pos] = CachedRef{raw_width, id, index};
  WriteSlot(slab_[index], approx, /*cached=*/true);
  return result;
}

void EntryStore::Erase(int id) {
  uint32_t index = IndexOf(id);
  if (index == kNoSlot) return;
  uint32_t pos = records_[index].cached_pos;
  if (pos == kNotCached) return;
  // Swap-remove keeps the cached list compact.
  cached_[pos] = cached_.back();
  records_[cached_[pos].index].cached_pos = pos;
  cached_.pop_back();
  records_[index].cached_pos = kNotCached;
  WriteSlot(slab_[index], CachedApprox{}, /*cached=*/false);
}

bool EntryStore::RegisterSlot(int id) {
  uint32_t known = RawIndexOf(id);
  if (known == kNoSlot) {
    AddIndex(id, /*bare=*/false);
  } else if ((known & kBareBit) != 0) {
    // A bare id turns registered in place; its slot has mirrored every
    // change all along.
    MapId(id, known & ~kBareBit);
  } else {
    return false;  // duplicate
  }
  ++num_slots_;
  return true;
}

uint32_t EntryStore::AddIndex(int id, bool bare) {
  const size_t count = records_.size();
  if (count == slab_capacity_) {
    size_t next = slab_capacity_ == 0 ? 64 : slab_capacity_ * 2;
    auto grown = std::make_unique<VersionedSlot[]>(next);
    // Growth is single-threaded by contract (registration, or a bare id of
    // a store no lock-free reader holds), so relaxed copies are safe.
    for (size_t i = 0; i < count; ++i) {
      const VersionedSlot& from = slab_[i];
      VersionedSlot& to = grown[i];
      to.version.store(from.version.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      to.cached.store(from.cached.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      to.lo.store(from.lo.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      to.hi.store(from.hi.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      to.refresh_time.store(from.refresh_time.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      to.growth_coeff.store(from.growth_coeff.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      to.growth_exp.store(from.growth_exp.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      to.drift_rate.store(from.drift_rate.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    slab_ = std::move(grown);
    slab_capacity_ = next;
  }
  uint32_t index = static_cast<uint32_t>(count);
  records_.emplace_back();
  MapId(id, bare ? index | kBareBit : index);
  return index;
}

void EntryStore::MapId(int id, uint32_t value) {
  if (id >= 0 && static_cast<size_t>(id) < kDenseIdLimit) {
    if (dense_index_.size() <= static_cast<size_t>(id)) {
      dense_index_.resize(static_cast<size_t>(id) + 1, kNoSlot);
    }
    dense_index_[static_cast<size_t>(id)] = value;
  } else {
    sparse_index_[id] = value;
  }
}

void EntryStore::WriteSlot(VersionedSlot& slot, const CachedApprox& approx,
                           bool cached) {
  // Seqlock publish: odd version -> payload -> even version. The release
  // fence keeps the payload stores from sinking above the odd mark; the
  // final release store publishes the payload to validating readers.
  uint32_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.cached.store(cached, std::memory_order_relaxed);
  slot.lo.store(approx.base.lo(), std::memory_order_relaxed);
  slot.hi.store(approx.base.hi(), std::memory_order_relaxed);
  slot.refresh_time.store(approx.refresh_time, std::memory_order_relaxed);
  slot.growth_coeff.store(approx.growth_coeff, std::memory_order_relaxed);
  slot.growth_exp.store(approx.growth_exp, std::memory_order_relaxed);
  slot.drift_rate.store(approx.drift_rate, std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);
}

SnapshotRead EntryStore::TryVisibleInterval(int id, int64_t now,
                                            Interval* out) const {
  // Dense ids: one vector load to find the slot, one cache line to read
  // it — no hashing, no pointer chasing on the optimistic path.
  uint32_t index = SlotIndexOf(id);
  if (index == kNoSlot) {
    *out = Interval::Unbounded();
    return SnapshotRead::kMiss;
  }
  const VersionedSlot& slot = slab_[index];
  uint32_t v1 = slot.version.load(std::memory_order_acquire);
  if (v1 & 1u) return SnapshotRead::kTorn;  // write in progress
  bool cached = slot.cached.load(std::memory_order_relaxed);
  double lo = slot.lo.load(std::memory_order_relaxed);
  double hi = slot.hi.load(std::memory_order_relaxed);
  int64_t refresh_time = slot.refresh_time.load(std::memory_order_relaxed);
  double growth_coeff = slot.growth_coeff.load(std::memory_order_relaxed);
  double growth_exp = slot.growth_exp.load(std::memory_order_relaxed);
  double drift_rate = slot.drift_rate.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.version.load(std::memory_order_relaxed) != v1) {
    return SnapshotRead::kTorn;
  }
  // Only a validated copy is materialized: a torn {lo, hi} pair could
  // violate lo <= hi and must never reach the Interval constructor.
  if (!cached) {
    *out = Interval::Unbounded();
    return SnapshotRead::kMiss;
  }
  CachedApprox approx;
  approx.base = Interval(lo, hi);
  approx.refresh_time = refresh_time;
  approx.growth_coeff = growth_coeff;
  approx.growth_exp = growth_exp;
  approx.drift_rate = drift_rate;
  *out = approx.AtTime(now);
  return SnapshotRead::kHit;
}

ProtocolTable::ProtocolTable(const Config& config, uint64_t seed)
    : config_(config),
      store_(config.capacity),
      costs_(config.costs),
      rng_(seed) {}

bool ProtocolTable::SetWatched(int id, bool watched) {
  uint32_t index = store_.SlotIndexOf(id);
  if (index == EntryStore::kNoSlot) return false;
  if (watched) {
    change_flags_[index] |= kWatched;
  } else {
    change_flags_[index] &= ~kWatched;
  }
  return true;
}

void ProtocolTable::MarkDirty(int id) {
  changed_ = true;
  uint32_t index = store_.SlotIndexOf(id);
  if (index == EntryStore::kNoSlot) return;
  uint8_t& flags = change_flags_[index];
  // Exactly kWatched: watched and not yet dirty this drain window.
  if (flags != kWatched) return;
  flags |= kDirty;
  dirty_ids_.push_back(id);
}

void ProtocolTable::DrainDirtyIds(std::vector<int>* out) {
  for (int id : dirty_ids_) {
    change_flags_[store_.SlotIndexOf(id)] &= ~kDirty;
  }
  out->insert(out->end(), dirty_ids_.begin(), dirty_ids_.end());
  dirty_ids_.clear();
  changed_ = false;
}

void ProtocolTable::OfferMirrored(int id, const CachedApprox& approx,
                                  double raw_width) {
  // An unregistered id would grow the store's index under lock-free
  // readers.
  assert(Registered(id));
  // The store publishes the slab mirror itself (evicted slot first, then
  // the offered slot); this layer adds the trace and dirty-id outcomes.
  EntryStore::OfferResult result = store_.OfferEx(id, approx, raw_width);
  if (result.evicted_id >= 0) {
    // The evicted id's visible interval widened to unbounded — a change a
    // standing query over it must hear about.
    MarkDirty(result.evicted_id);
  }
  if (result.cached) {
    obs::TraceRecorder::Record(obs::TraceEvent::kOfferApplied, id,
                               approx.refresh_time);
    MarkDirty(id);
  }
}

void ProtocolTable::OfferInitial(int id, ProtocolCell& cell, double value,
                                 int64_t now) {
  CachedApprox approx = cell.Ship(value, now);
  OfferMirrored(id, approx, cell.raw_width());
}

ValueTickOutcome ProtocolTable::OnValueTick(int id, ProtocolCell& cell,
                                            double value, int64_t now) {
  ValueTickOutcome outcome;
  // The cell tests validity against the approximation it last shipped —
  // caches never report evictions (paper §2), so refreshes are pushed even
  // for entries the cache has dropped.
  if (!cell.NeedsValueRefresh(value, now)) return outcome;
  costs_.RecordValueRefresh();
  outcome.refreshed = true;
  CachedApprox approx = cell.Refresh(value, RefreshType::kValueInitiated, now);
  if (attribution_ != nullptr) {
    // Mirrored BEFORE loss injection, like the tracker charge: the source
    // paid Cvr whether or not the push arrives.
    attribution_->RecordValueRefresh(id, config_.costs.cvr, cell.raw_width(),
                                     now);
  }
  if (config_.push_loss_probability > 0.0 &&
      rng_.Bernoulli(config_.push_loss_probability)) {
    // The message is lost: the source has already updated its own notion of
    // the shipped interval (and paid Cvr), but the cache never sees it.
    ++lost_pushes_;
    outcome.lost = true;
    obs::TraceRecorder::Record(obs::TraceEvent::kOfferChargedLost, id, now);
    return outcome;
  }
  OfferMirrored(id, approx, cell.raw_width());
  return outcome;
}

double ProtocolTable::Pull(int id, ProtocolCell& cell, double value,
                           int64_t now) {
  costs_.RecordQueryRefresh();
  CachedApprox approx = cell.Refresh(value, RefreshType::kQueryInitiated, now);
  if (attribution_ != nullptr) {
    attribution_->RecordQueryRefresh(id, config_.costs.cqr, cell.raw_width(),
                                     now);
  }
  OfferMirrored(id, approx, cell.raw_width());
  return value;
}

void ProtocolTable::OfferDerivedInitial(int id, const CachedApprox& approx,
                                        double raw_width) {
  OfferMirrored(id, approx, raw_width);
}

ValueTickOutcome ProtocolTable::OfferDerived(int id, const CachedApprox& approx,
                                             double raw_width,
                                             RefreshType type) {
  ValueTickOutcome outcome;
  outcome.refreshed = true;
  if (type == RefreshType::kValueInitiated) {
    costs_.RecordValueRefresh();
    if (attribution_ != nullptr) {
      attribution_->RecordValueRefresh(id, config_.costs.cvr, raw_width,
                                       approx.refresh_time);
    }
    // Derived pushes cross a real link: the charge stands even when
    // failure injection drops the message (charged-but-lost, identical to
    // OnValueTick). The parent keeps its sender-side record of what it
    // shipped; the receiving cache simply never sees it.
    if (config_.push_loss_probability > 0.0 &&
        rng_.Bernoulli(config_.push_loss_probability)) {
      ++lost_pushes_;
      outcome.lost = true;
      obs::TraceRecorder::Record(obs::TraceEvent::kOfferChargedLost, id,
                                 approx.refresh_time);
      return outcome;
    }
  } else {
    // A query-initiated install is the reply of an escalated read the
    // reader already paid for; replies are not subject to push loss.
    costs_.RecordQueryRefresh();
    if (attribution_ != nullptr) {
      attribution_->RecordQueryRefresh(id, config_.costs.cqr, raw_width,
                                       approx.refresh_time);
    }
  }
  OfferMirrored(id, approx, raw_width);
  return outcome;
}

Interval ProtocolTable::VisibleInterval(int id, int64_t now) const {
  const ProtocolEntry* entry = store_.Find(id);
  if (entry == nullptr) return Interval::Unbounded();
  return entry->approx.AtTime(now);
}

}  // namespace apc
