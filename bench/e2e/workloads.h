// The end-to-end benchmark's four workloads: seeded input generation into
// compact 16-byte records, and the exact expected output each run is
// checked against.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/agg.h"
#include "src/localjoin/predicate.h"

namespace e2e {

/// One input tuple as the benchmark holds it before and during a run.
struct SlimTuple {
  int64_t key = 0;
  uint32_t bytes = 0;
  ajoin::Rel rel = ajoin::Rel::kR;
};
static_assert(sizeof(SlimTuple) == 16, "inputs are kept as 16-byte records");

enum class WorkloadId { kEqUniform, kEqFluctZipf, kBandLopsided, kJoinGroupby };

struct WorkloadDef {
  WorkloadId id;
  const char* name;
  /// Stream length at --scale 1.
  uint64_t tuples;
  /// Key domain [1, domain] as a multiple of the stream length, so results
  /// per input stay the same at any scale.
  double domain_per_tuple;
  /// Open-loop replay rate in tuples/s; 0 for a closed loop only.
  double rate;
  /// Length of one open-loop replay; a run makes as many as fit.
  double replay_seconds;
};

const std::vector<WorkloadDef>& Workloads();
/// The workload called `name`, or null.
const WorkloadDef* FindWorkload(const std::string& name);

/// A generated input stream: tuple i is pushed with sequence number i.
struct Stream {
  std::vector<SlimTuple> tuples;
  ajoin::JoinSpec spec;
  int64_t domain = 1;  // keys lie in [1, domain]
  int64_t band = 0;    // 0 for equi-joins, else |r.key - s.key| <= band
};

/// Generates `n` tuples of workload `w`; the same seed gives the same stream.
Stream Generate(const WorkloadDef& w, uint64_t n, uint64_t seed);

/// Per-side hashes of a tuple's sequence number.
inline uint64_t RHash(uint64_t seq) {
  return ajoin::SplitMix64(seq ^ 0x243f6a8885a308d3ULL);
}
inline uint64_t SHash(uint64_t seq) {
  return ajoin::SplitMix64(seq ^ 0x13198a2e03707344ULL);
}

/// Order-independent identity of a result pair. It is a product of one hash
/// per side, so the expected sum over all pairs of a key factorizes into
/// per-key sums (mod 2^64) and the oracle never enumerates pairs.
inline uint64_t PairHash(uint64_t r_seq, uint64_t s_seq) {
  return RHash(r_seq) * SHash(s_seq);
}

/// What a run over tuples [0, prefix) must output: the join's exact result
/// count and pair-hash sum, and for join_groupby the exact GROUP BY join key
/// of its results (COUNT, SUM/MIN/MAX of the result byte size) sorted by
/// key, as FoldAggRows returns it.
struct Expected {
  uint64_t results = 0;
  uint64_t checksum = 0;
  std::vector<ajoin::AggResult> groups;
};
Expected ExpectedOutput(const Stream& stream, size_t prefix, bool groupby);

}  // namespace e2e
