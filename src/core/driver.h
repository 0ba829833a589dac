// RunWorkload: the measurement harness every benchmark uses. Feeds a
// Workload through an operator on an engine, takes periodic quiescent
// snapshots of the joiner counters, and converts them to simulated execution
// time / ILF / throughput / latency via the CostModel.

#pragma once

#include <cstdint>
#include <vector>

#include "src/core/controller.h"
#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/runtime/task.h"
#include "src/sim/cost_model.h"

namespace ajoin {

class ControlLoop;  // src/core/control_loop.h

struct RunOptions {
  CostModel cost;
  ArrivalPolicy arrival;
  /// Number of progress snapshots over the run (also the time-integration
  /// granularity for the spill model).
  uint32_t snapshots = 100;
  /// Barrier-mode checkpoint cadence in input tuples (multi-group / sim).
  uint64_t checkpoint_every = 256;
  /// Drain the engine every N input tuples (0 = only at snapshots). The
  /// deterministic engine must drain frequently so control messages (epoch
  /// changes) do not lag behind queued inputs; 1 gives faithful per-tuple
  /// online semantics and is the default. Threaded runs set 0.
  uint64_t drain_every = 1;
  /// Input-side batch target: tuples staged per reshuffler before the
  /// operator ships them as one IngressPort::PostBatch. 0 (default) = auto:
  /// per-tuple posts whenever drain_every != 0 (the deterministic per-tuple
  /// cadence), size-targeted batches of 64 otherwise (threaded runs, where
  /// the driver's per-tuple Post was the last per-envelope hot path).
  uint32_t ingress_batch = 0;
  /// Live telemetry and control: when set, RunWorkload calls
  /// control->TickNow at every snapshot point (the sim engine's
  /// drain-interval path), so the loop must not be Start()ed. Not owned.
  ControlLoop* control = nullptr;
};

struct ProgressPoint {
  double fraction = 0;        // of total input processed
  double exec_seconds = 0;    // modeled parallel execution time so far
  uint64_t max_in_bytes = 0;  // max per-joiner ILF so far (bytes)
  uint64_t outputs = 0;
  bool migrating = false;
  double ilf_ratio = 0;       // mapping ILF / optimal ILF (single group)
  double rs_ratio = 0;        // |R| / |S| pushed so far
};

struct RunResult {
  std::vector<ProgressPoint> series;
  double exec_seconds = 0;
  uint64_t max_in_bytes = 0;
  uint64_t total_stored_bytes = 0;
  uint64_t outputs = 0;
  uint64_t input_tuples = 0;
  double throughput = 0;       // input tuples / exec second
  double avg_latency_ms = 0;   // modeled (2 hops + migration hop + queueing)
  bool spilled = false;
  uint64_t migrations = 0;
  std::vector<MigrationRecord> migration_log;
  double max_ilf_ratio = 0;    // max over snapshots (competitive ratio)
};

/// Runs the full workload through `op` — any Operator facade (JoinOperator,
/// ShjOperator, a Dataflow stage), no template per facade.
RunResult RunWorkload(Engine& engine, Operator& op, const Workload& workload,
                      const RunOptions& options);

}  // namespace ajoin
