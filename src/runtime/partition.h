#ifndef APC_RUNTIME_PARTITION_H_
#define APC_RUNTIME_PARTITION_H_

#include <cstdint>

namespace apc {
namespace runtime_internal {

/// splitmix64 finalizer: spreads consecutive ids uniformly across shards.
/// The ONE partition function of the runtime — the engine and the
/// UpdateBus ring router must agree on id→shard routing, so it lives here
/// instead of in per-consumer copies. Callers cast their int id
/// to uint64_t first (sign-extending negatives), so every consumer hashes
/// identical bit patterns.
inline uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace runtime_internal
}  // namespace apc

#endif  // APC_RUNTIME_PARTITION_H_
