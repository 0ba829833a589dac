#include "src/core/driver.h"

#include <algorithm>
#include <cmath>

#include "src/core/control_loop.h"

namespace ajoin {

namespace {

/// Theoretical ILF of the operator's current mapping given pushed byte
/// totals, relative to the optimal mapping's — the competitive ratio the
/// paper plots in Fig. 8c.
double IlfRatio(const ControllerCore* ctrl, double r_bytes, double s_bytes) {
  if (ctrl == nullptr || r_bytes + s_bytes == 0) return 1.0;
  Mapping cur = ctrl->current_mapping(0);
  double cur_ilf = InputLoadFactor(cur, r_bytes, s_bytes);
  double opt_ilf = OptimalIlf(cur.J(), r_bytes, s_bytes);
  if (opt_ilf <= 0) return 1.0;
  return cur_ilf / opt_ilf;
}

}  // namespace

RunResult RunWorkload(Engine& engine, Operator& op, const Workload& workload,
                      const RunOptions& options) {
  RunResult result;
  auto source = workload.MakeSource(options.arrival);
  const uint64_t total = workload.total_count();
  const uint64_t snap_every =
      std::max<uint64_t>(1, total / std::max<uint32_t>(1, options.snapshots));

  const size_t slots = op.num_joiner_slots();
  TimeAccumulator time_acc(slots);
  uint64_t pushed = 0;
  double r_bytes = 0, s_bytes = 0;
  uint64_t migrating_tuples = 0;

  // Drive the operator's ingress port with size-targeted batches when the
  // run has no per-tuple drain cadence to preserve (see RunOptions).
  const uint32_t ingress_batch =
      options.ingress_batch != 0 ? options.ingress_batch
                                 : (options.drain_every != 0 ? 1u : 64u);
  op.SetIngressBatch(ingress_batch);

  auto snapshot = [&](bool final_point) {
    op.FlushInput();  // staged input counts as pushed; ship it first
    engine.WaitQuiescent();
    uint64_t max_in = 0;
    uint64_t outputs = 0;
    for (size_t i = 0; i < slots; ++i) {
      const JoinerMetrics& m = op.joiner(i).metrics();
      time_acc.Update(i, m, options.cost);
      max_in = std::max(max_in, m.in_bytes);
      outputs += m.output_tuples;
    }
    ProgressPoint point;
    point.fraction = total == 0 ? 1.0
                                : static_cast<double>(pushed) /
                                      static_cast<double>(total);
    point.exec_seconds = time_acc.MaxBusySeconds();
    point.max_in_bytes = max_in;
    point.outputs = outputs;
    const ControllerCore* ctrl = op.controller();
    point.migrating = ctrl != nullptr && ctrl->AnyMigrating();
    point.ilf_ratio = IlfRatio(ctrl, r_bytes, s_bytes);
    point.rs_ratio = s_bytes > 0 ? r_bytes / s_bytes : 0;
    result.series.push_back(point);
    result.max_ilf_ratio = std::max(result.max_ilf_ratio, point.ilf_ratio);
    // Drain-interval control tick (the sim-engine path).
    if (options.control != nullptr) {
      options.control->TickNow(engine.NowMicros());
    }
    (void)final_point;
  };

  StreamTuple tuple;
  while (source->Next(&tuple)) {
    op.Push(tuple);
    ++pushed;
    if (tuple.rel == Rel::kR) {
      r_bytes += tuple.bytes;
    } else {
      s_bytes += tuple.bytes;
    }
    if (options.drain_every != 0 && pushed % options.drain_every == 0) {
      op.FlushInput();
      engine.WaitQuiescent();
    }
    if (options.checkpoint_every != 0 &&
        pushed % options.checkpoint_every == 0) {
      op.Checkpoint();
      if (options.drain_every != 0) engine.WaitQuiescent();
    }
    const ControllerCore* ctrl = op.controller();
    if (ctrl != nullptr && ctrl->AnyMigrating()) ++migrating_tuples;
    if (pushed % snap_every == 0) snapshot(false);
  }
  op.Checkpoint();
  op.SendEos();
  snapshot(true);

  result.exec_seconds = time_acc.MaxBusySeconds();
  result.max_in_bytes = result.series.empty()
                            ? 0
                            : result.series.back().max_in_bytes;
  result.total_stored_bytes = op.TotalStoredBytes();
  result.outputs = op.TotalOutputs();
  result.input_tuples = pushed;
  result.throughput = result.exec_seconds > 0
                          ? static_cast<double>(pushed) / result.exec_seconds
                          : 0;
  result.spilled = time_acc.AnySpill();
  const ControllerCore* ctrl = op.controller();
  if (ctrl != nullptr) {
    result.migration_log = ctrl->log();
    result.migrations = result.migration_log.size();
  }
  // Latency model: two network hops, queueing that grows with per-joiner
  // state (demarshalling/indexing backlog), plus one extra hop for the
  // fraction of traffic that was in-flight during migrations (paper §5.2:
  // "during state migration, an additional network hop increases the tuple
  // latency").
  uint64_t mig_in_total = 0;
  for (size_t i = 0; i < slots; ++i) {
    mig_in_total += op.joiner(i).metrics().mig_in_tuples;
  }
  double migrating_frac =
      pushed == 0 ? 0
                  : static_cast<double>(migrating_tuples) /
                        static_cast<double>(pushed);
  double mig_traffic_frac =
      pushed == 0 ? 0
                  : std::min(1.0, static_cast<double>(mig_in_total) /
                                      static_cast<double>(pushed));
  double queueing_ms =
      14.0 * std::sqrt(static_cast<double>(result.max_in_bytes) / (1 << 20));
  result.avg_latency_ms =
      options.cost.hop_latency_ms *
          (2.0 + migrating_frac + 2.0 * mig_traffic_frac) +
      queueing_ms;
  return result;
}

}  // namespace ajoin
