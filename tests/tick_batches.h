// The multi-event runs the update path can be handed, shared by the burst
// parity tests in runtime_test.cc and tiered_engine_test.cc: a PushBatch
// of tick-alls reaches every shard as one run, and single-id ticks of ids
// that share a shard are one run on that shard.
#ifndef APC_TESTS_TICK_BATCHES_H_
#define APC_TESTS_TICK_BATCHES_H_

#include <cstdint>
#include <vector>

#include "runtime/tiered_engine.h"

namespace apc {

/// Four single-id ticks for one run: the first three ids that share id
/// 0's shard in `engine`, the first of them twice.
inline std::vector<int> OneShardSingles(const TieredEngine& engine) {
  std::vector<int> ids;
  for (int id = 0; ids.size() < 3; ++id) {
    if (engine.ShardOf(id) == engine.ShardOf(0)) ids.push_back(id);
  }
  return {ids[0], ids[1], ids[0], ids[2]};
}

/// One batch per tick pair (t, t+1) up to `ticks` (even): the two
/// tick-alls, then `singles` at t+1, twice — per tick, one tick-all and
/// `singles` once.
inline std::vector<std::vector<UpdateEvent>> TickPairBatches(
    int64_t ticks, const std::vector<int>& singles) {
  std::vector<std::vector<UpdateEvent>> batches;
  for (int64_t t = 1; t < ticks; t += 2) {
    std::vector<UpdateEvent> batch = {{t, UpdateEvent::kAllSources},
                                      {t + 1, UpdateEvent::kAllSources}};
    for (int copy = 0; copy < 2; ++copy) {
      for (int id : singles) batch.push_back({t + 1, id});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Applies `batches` event by event through TickAll/TickSource: the
/// synchronous twin of pushing each batch.
inline void TickInLockstep(
    TieredEngine& engine,
    const std::vector<std::vector<UpdateEvent>>& batches) {
  for (const std::vector<UpdateEvent>& batch : batches) {
    for (const UpdateEvent& e : batch) {
      if (e.source_id == UpdateEvent::kAllSources) {
        engine.TickAll(e.now);
      } else {
        engine.TickSource(e.source_id, e.now);
      }
    }
  }
}

}  // namespace apc

#endif  // APC_TESTS_TICK_BATCHES_H_
