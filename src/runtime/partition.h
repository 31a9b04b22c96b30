#ifndef APC_RUNTIME_PARTITION_H_
#define APC_RUNTIME_PARTITION_H_

#include <cstddef>
#include <cstdint>

namespace apc {
namespace runtime_internal {

/// splitmix64 finalizer: spreads consecutive ids uniformly across shards.
inline uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The ONE id→shard routing of the runtime: the engine and the UpdateBus
/// run splitter must agree on it, so it lives here instead of in
/// per-consumer copies. The int id is sign-extended to uint64_t first, so
/// every consumer hashes identical bit patterns.
inline size_t ShardIndex(int id, size_t num_shards) {
  return static_cast<size_t>(MixId(static_cast<uint64_t>(id)) % num_shards);
}

}  // namespace runtime_internal
}  // namespace apc

#endif  // APC_RUNTIME_PARTITION_H_
