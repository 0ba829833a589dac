// The control loop's one signals record (paper §4.1, Alg. 1: the controller
// acts only on the statistics it observes of the running operator).
// ControlLoop (src/core/control_loop.h) derives one per attached operator
// per tick from that tick's telemetry sample; AutoscalePolicy
// (src/core/autoscale.h) and ShedPolicy (src/core/shed.h) both decide on
// it, and the decision log stores it next to every action it triggered.

#pragma once

#include <cstdint>

namespace ajoin {

/// One operator's signals over one control tick.
struct ControlSignals {
  /// Joiners inside the live grid (telemetry `active` flag).
  uint32_t live_joiners = 0;
  /// Any joiner mid-migration (the autoscale policy never acts while true).
  bool migrating = false;
  /// Plane-wide credit-stall time over the tick's wall time; can exceed 1
  /// when several producers stall at once.
  double stall_ratio = 0;
  /// Input tuples/sec over the tick (joiner in_tuples delta).
  double input_rate = 0;
  /// Max stored tuples on any live joiner (logged; no trigger reads it).
  uint64_t max_stored = 0;
  /// Instantaneous ingress backlog gauge (envelopes posted, not consumed).
  uint64_t backlog = 0;
};

}  // namespace ajoin
