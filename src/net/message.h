// Message envelope exchanged between operator tasks, and TupleBatch, the
// batched unit the exchange plane ships between them. A single envelope type
// keeps channels and engines monomorphic; the `type` tag selects which
// fields are meaningful.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/mapping.h"
#include "src/localjoin/predicate.h"
#include "src/tuple/row.h"

namespace ajoin {

enum class MsgType : uint8_t {
  kInput = 0,     // driver -> reshuffler: raw input tuple
  kData,          // reshuffler -> joiner: routed tuple (epoch-tagged)
  kMigrate,       // joiner -> joiner: migrated state tuple (mu)
  kMigEnd,        // joiner -> joiner: sender finished its migration sends
  kEpochChange,   // controller -> reshufflers: enter new epoch with mapping
  kReshufSignal,  // reshuffler -> joiners: epoch-change flush marker
  kMigAck,        // joiner -> controller: migration finalized locally
  kEos,           // driver -> reshuffler -> joiner: end of stream
  kCheckpoint,    // driver -> controller: barrier-mode migration checkpoint
  kResult,        // joiner -> sink / next stage: one join result (epoch-
                  // agnostic; field use: key = the R tuple's join key (on
                  // equi joins both keys are equal), seq = r_seq,
                  // tag = s_seq, bytes = r+s bytes, row = r_row ++ s_row,
                  // weight = Horvitz-Thompson weight, 1.0 unless the
                  // emitting joiner was shedding). rel and ingest_us are
                  // the probing tuple's — the one of the pair the joiner
                  // processed later; every other field is fixed by the pair.
                  // Agg stages emit kResult too, with: key = group key,
                  // seq = SplitMix64(key) (stable identity), tag =
                  // accumulator partition, bytes = accumulator footprint,
                  // weight = 1.0 (weights were consumed into the
                  // accumulator), row = [key, count(double = sum of
                  // weights), sum(double = sum of weight*value), min(i64),
                  // max(i64), tuples(i64 raw merges)]; AVG = sum/count.
  kScale,         // operator/control loop -> controller reshuffler: elastic
                  // scale request; key = signed step count (+k = k grow
                  // steps of 4x, -k = k shrink steps of /4). Control: cuts
                  // batches and serializes behind routed data on the
                  // ingress edge.
  kShed,          // operator/control loop -> reshufflers -> joiners:
                  // admission-rate change; key = admitted probe fraction in
                  // parts-per-million (kShedExactPpm = shedding off), seq =
                  // the operator's increasing request number (joiners drop
                  // copies not newer than the last one they applied).
                  // Control: cuts batches and serializes behind routed data
                  // on every edge it travels, so a rate change can never
                  // overtake the tuples admitted under the previous rate.
  kEosNote,       // agg router -> controller router: every expected EOS for
                  // this router's share of the stage input has arrived and
                  // all data routed by it has been sent. Control: serializes
                  // behind that routed data on the router->controller edge.
  kFlush,         // controller router -> agg routers -> agg workers: the
                  // whole stage's input is drained; emit final aggregates.
                  // Control: serializes behind all data on every edge it
                  // travels, so a flush can never overtake routed tuples or
                  // in-flight migration state.
};

/// Number of MsgType values. Keep in lockstep with the enum above; the
/// message tests assert MsgTypeName covers exactly this many values, so an
/// unnamed (or uncounted) type cannot ship.
constexpr uint8_t kNumMsgTypes = 14;

/// kShed rate denominator: a kShed message with key == kShedExactPpm (or any
/// larger value) restores exact, unsampled probing.
constexpr int64_t kShedExactPpm = 1000000;

const char* MsgTypeName(MsgType type);

/// Epoch transition descriptor (kEpochChange / kReshufSignal).
struct EpochSpec {
  uint32_t group = 0;    // group index (non-power-of-two J decomposition)
  uint32_t epoch = 0;    // new epoch number
  Mapping mapping;       // new (n,m) mapping of that group
  bool expansion = false;  // mapping refers to the expanded (4x) grid
  bool contraction = false;  // elastic shrink: mapping quarters the grid
  /// Aggregation stages only: the new partition -> worker assignment
  /// (indexed by accumulator partition, values are worker machine indices).
  /// A keyed single-stream stage has no (n,m) grid to relabel, so its epoch
  /// change ships the whole assignment vector instead. Empty for join
  /// epochs.
  std::vector<uint32_t> agg_assign;
};

struct Envelope {
  MsgType type = MsgType::kInput;
  int32_t from = -1;  // sender task id (engine-level)

  // -- tuple payload (kInput, kData, kMigrate) --
  Rel rel = Rel::kR;
  int64_t key = 0;      // join key (slim mode; also cached in row mode)
  uint64_t tag = 0;     // uniform partition tag (assigned by reshuffler)
  uint64_t seq = 0;     // global arrival sequence number
  uint32_t bytes = 0;   // accounted tuple size
  uint32_t epoch = 0;   // epoch the tuple was routed under (kData)
  uint32_t group = 0;   // target group (kData/kMigrate)
  bool store = true;    // store-and-join vs probe-only (cross-group probes)
  uint64_t ingest_us = 0;  // arrival timestamp for latency measurement
  /// kResult only: Horvitz-Thompson weight. Exact results carry 1.0; a
  /// joiner probing at admission rate p stamps 1/p, so any downstream
  /// weighted aggregate stays an unbiased estimator of the exact join.
  double weight = 1.0;
  bool has_row = false;
  Row row;

  // -- control payload --
  EpochSpec espec;
};

/// Convenience constructors.
Envelope MakeInput(Rel rel, int64_t key, uint32_t bytes, uint64_t seq);

// ---------------------------------------------------------------------------
// TupleBatch: the unit that travels an exchange edge. Batching amortizes
// per-message costs — ring/channel synchronization, virtual dispatch into the
// task, in-flight accounting, and clock reads — over `batch_size` envelopes.
//
// Batches never mix control and data: control messages (epoch signals,
// migration markers, acks, EOS) always flush the edge's pending data batch
// first and then travel as a singleton batch, so a flush marker can never
// overtake — or be overtaken by — data buffered on the same edge. Because
// reshufflers emit the epoch-change signal before any tuple routed under the
// new mapping, this also means a data batch never mixes epochs.
// ---------------------------------------------------------------------------

struct TupleBatch {
  std::vector<Envelope> items;
  /// When the first envelope was buffered (producer clock, micros). Drives
  /// the deadline flush; read once per batch, not per tuple.
  uint64_t first_buffered_us = 0;

  TupleBatch() = default;
  explicit TupleBatch(Envelope&& single) { items.push_back(std::move(single)); }

  size_t size() const { return items.size(); }
  bool empty() const { return items.empty(); }

  void Add(Envelope&& msg) { items.push_back(std::move(msg)); }

  void Clear() {
    items.clear();
    first_buffered_us = 0;
  }
};

/// True for message types that cut batches: they flush the edge's buffered
/// data and travel alone, preserving their ordering role in the migration
/// protocol (kReshufSignal / kMigEnd are FIFO markers; kEos terminates).
inline bool IsControlMsg(MsgType type) {
  switch (type) {
    case MsgType::kInput:
    case MsgType::kData:
    case MsgType::kMigrate:
    case MsgType::kResult:
      return false;
    default:
      return true;
  }
}

}  // namespace ajoin
