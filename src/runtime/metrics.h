// Per-task counter records, one per task kind. Engines stay
// accounting-free; the owning task bumps its record with plain stores.
// Drivers can harvest it at quiescent points, and when a task is wired to a
// TaskTelemetry cell (src/runtime/metrics_registry.h) the task publishes the
// record whole, so consistent copies are also available mid-stream from any
// thread. A new counter is one field here (plus one AppendKv line in
// src/core/control_loop.cc if it is exported); the records must stay
// trivially copyable, since a publish copies them as bytes.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "src/net/message.h"

namespace ajoin {

/// Counters maintained by a joiner task.
struct JoinerMetrics {
  // Input-side (the ILF in tuples/bytes: every kData tuple received+stored).
  uint64_t in_tuples = 0;
  uint64_t in_bytes = 0;
  // Join work.
  uint64_t probe_candidates = 0;  // index candidates visited
  uint64_t output_tuples = 0;
  // Migration traffic.
  uint64_t mig_out_tuples = 0;
  uint64_t mig_out_bytes = 0;
  uint64_t mig_in_tuples = 0;
  uint64_t mig_in_bytes = 0;
  uint64_t discarded_tuples = 0;
  uint64_t migrations_finalized = 0;
  // Load shedding: probe-side tuples whose probe was skipped by Bernoulli
  // sampling (the tuples themselves were still stored exactly).
  uint64_t shed_probes_skipped = 0;
  // Current / peak storage.
  uint64_t stored_tuples = 0;
  uint64_t stored_bytes = 0;
  uint64_t peak_stored_bytes = 0;

  void NoteStored(uint64_t bytes) {
    stored_tuples += 1;
    stored_bytes += bytes;
    if (stored_bytes > peak_stored_bytes) peak_stored_bytes = stored_bytes;
  }
  // A drop can never exceed what is stored; clamp rather than wrap so a
  // bookkeeping slip degrades to a zeroed gauge instead of a ~2^64 one.
  void NoteDropped(uint64_t count, uint64_t bytes) {
    assert(count <= stored_tuples && "NoteDropped underflow (tuples)");
    assert(bytes <= stored_bytes && "NoteDropped underflow (bytes)");
    stored_tuples -= std::min(count, stored_tuples);
    stored_bytes -= std::min(bytes, stored_bytes);
    discarded_tuples += count;
  }
};

/// The record of a joiner (kJoiner cells): its counters plus the protocol
/// state it publishes with them. A registered cell holds the defaults until
/// the joiner's first publish, so it reads exact probing and inactive.
struct JoinerSnapshot : JoinerMetrics {
  // Admitted probe fraction in ppm (kShedExactPpm = exact, anything lower
  // = shedding).
  uint32_t shed_rate_ppm = static_cast<uint32_t>(kShedExactPpm);
  uint32_t epoch = 0;      // partitioning epoch the joiner is in
  bool migrating = false;  // mid-migration right now?
  bool active = false;     // inside the group's live grid (elastic
                           // scaling tombstones retirees in place)
};

/// Counters maintained by a routing task: a reshuffler, or an agg router
/// (kReshuffler cells).
struct ReshufflerMetrics {
  uint64_t routed_tuples = 0;
  uint64_t sent_msgs = 0;
  uint64_t sent_bytes = 0;
  uint64_t epoch_changes = 0;
  // Upstream kResult envelopes re-ingested as stage input.
  uint64_t results_restamped = 0;
};

/// The record of an agg worker (kAgg cells): accumulator-table counters
/// plus the gauges and protocol state the worker fills in when it
/// publishes.
struct AggSnapshot {
  uint64_t in_tuples = 0;     // data tuples merged (excludes migrated cells)
  uint64_t in_bytes = 0;      // accounted bytes of those tuples
  uint64_t groups = 0;        // distinct group keys resident right now
  uint64_t table_bytes = 0;   // accumulator-table footprint (MemoryBytes)
  uint64_t mig_out_cells = 0;  // accumulator cells shipped to other workers
  uint64_t mig_in_cells = 0;   // accumulator cells absorbed from others
  uint64_t migrations_finalized = 0;
  uint64_t emitted_results = 0;  // kResult aggregates emitted downstream
  uint32_t epoch = 0;         // assignment epoch the worker is in
  bool migrating = false;     // mid-repartition right now?
  bool flushed = false;       // final aggregates emitted (stage drained)
};

}  // namespace ajoin
