#ifndef APC_SUBSCRIBE_CHANGE_SINK_H_
#define APC_SUBSCRIBE_CHANGE_SINK_H_

#include <cstdint>
#include <vector>

namespace apc {

/// Consumer side of the protocol core's change-detection hook
/// (ProtocolTable::DrainDirtyIds): engines drain the WATCHED ids whose
/// cached visible interval changed and hand them here.
///
/// Contract: OnIntervalChanges is invoked WHILE the engine still holds the
/// lock that covered the mutation, so an implementation must only enqueue
/// (never evaluate, never call back into the engine) — that is what makes
/// "the change is pending before the mutation is observable" hold, which
/// the no-missed-violation checker relies on. Implementations must be
/// thread-safe and must not block beyond a short internal mutex.
class IntervalChangeSink {
 public:
  virtual ~IntervalChangeSink() = default;

  /// Something changed its cached visible state at logical time `now`;
  /// `ids` are the watched ids among the changes. An empty `ids` reports
  /// changes to unwatched ids only: the sink advances its clock to `now`
  /// and must not take a lock — that is the write path's cost for every
  /// id no standing query covers.
  virtual void OnIntervalChanges(const std::vector<int>& ids,
                                 int64_t now) = 0;
};

}  // namespace apc

#endif  // APC_SUBSCRIBE_CHANGE_SINK_H_
