#include "subscribe/subscription_table.h"

#include <algorithm>

namespace apc {

int64_t SubscriptionTable::Add(const Query& query, double delta,
                               std::vector<int>* newly_watched) {
  int64_t sub_id = next_id_++;
  Subscription sub;
  sub.sub_id = sub_id;
  sub.query = query;
  sub.query.constraint = delta;
  sub.delta = delta;
  subs_.emplace(sub_id, std::move(sub));
  for (int id : query.source_ids) {
    std::vector<int64_t>& posting = postings_[id];
    if (posting.empty()) newly_watched->push_back(id);
    // A duplicated id within one query must not double-post the sub; the
    // fresh sub_id can only have been pushed by this very loop, always at
    // the back.
    if (posting.empty() || posting.back() != sub_id) {
      posting.push_back(sub_id);
    }
  }
  return sub_id;
}

bool SubscriptionTable::Remove(int64_t sub_id, std::vector<int>* released) {
  auto it = subs_.find(sub_id);
  if (it == subs_.end()) return false;
  for (int id : it->second.query.source_ids) {
    auto posting = postings_.find(id);
    if (posting == postings_.end()) continue;
    auto& subs = posting->second;
    subs.erase(std::remove(subs.begin(), subs.end(), sub_id), subs.end());
    if (subs.empty()) {
      postings_.erase(posting);
      released->push_back(id);
    }
  }
  subs_.erase(it);
  return true;
}

Subscription* SubscriptionTable::Find(int64_t sub_id) {
  auto it = subs_.find(sub_id);
  return it == subs_.end() ? nullptr : &it->second;
}

const Subscription* SubscriptionTable::Find(int64_t sub_id) const {
  auto it = subs_.find(sub_id);
  return it == subs_.end() ? nullptr : &it->second;
}

void SubscriptionTable::AppendSubsOf(int source_id,
                                     std::vector<int64_t>* out) const {
  auto it = postings_.find(source_id);
  if (it == postings_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

std::vector<int64_t> SubscriptionTable::SubIds() const {
  std::vector<int64_t> ids;
  ids.reserve(subs_.size());
  for (const auto& [sub_id, sub] : subs_) ids.push_back(sub_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace apc
