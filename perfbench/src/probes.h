#ifndef STREAMSC_PERFBENCH_PROBES_H_
#define STREAMSC_PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>

#include "harness.h"

/// \file probes.h
/// Layer probes: each times one public function of one layer on the
/// workload's own data, through the path the solvers use, and reports a
/// per-unit cost. A workload probes only the layers its solve path
/// loads; the rest stay at 0 ("bypassed").

namespace perfbench {

/// util: CountAnd / AndNotInto through SetView over the mmap'd dense
/// spans (ns per 64-bit word) and CountAnd over the sparse spans (ns per
/// id) of the sscb1 at \p path.
void ProbeSetKernels(const std::string& path, std::uint64_t seed,
                     Metrics* metrics);

/// core: SubUniverse::ProjectAdaptive of every set of \p path onto a 1/8
/// element sample, ns per universe word.
void ProbeProjection(const std::string& path, std::uint64_t seed,
                     Metrics* metrics);

/// stream: MakeEngine(2) and MakeEngine(4) construct + join, µs.
void ProbeEngine(Metrics* metrics);

/// storage: MmapSetStream open + validate of \p path, ms per MB.
void ProbeMmapOpen(const std::string& path, Metrics* metrics);

/// dynamic: DeltaLog open + validate of \p path, ms per MB.
void ProbeDeltaLogOpen(const std::string& path, Metrics* metrics);

/// serve: EncodeResponse + DecodeResponse of a threshold_greedy report
/// over \p path, µs per round trip.
void ProbeCodec(const std::string& path, Metrics* metrics);

}  // namespace perfbench

#endif  // STREAMSC_PERFBENCH_PROBES_H_
