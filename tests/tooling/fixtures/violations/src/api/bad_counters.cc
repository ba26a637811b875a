#include "obs/counters.h"
namespace streamsc {
// CounterId::Counter("engine.passes") in a comment is not a violation.
inline std::uint64_t Taken(const CounterSet& counters) {
  return counters.value(CounterId::Counter("engine.sets_taken"));
}
inline CounterId Mine() { return CounterId::Counter("api.mine"); }
}  // namespace streamsc
