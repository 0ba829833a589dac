// Elastic autoscaling: closes the loop the paper leaves to the "cloud
// provider" side of section 4.3 — watch the live operator through the
// telemetry plane and add or retire joiner machines at runtime, using the
// migration protocol (Alg. 3) as the mechanism so the stream never pauses.
//
// AutoscalePolicy is the decision logic: a pure, deterministic state
// machine, testable without an engine — feed it one ControlSignals record
// (src/core/signals.h) per tick, get back kHold/kGrow/kShrink. It reads the
// live-joiner count, the migrating flag, the stall ratio and the input
// rate. Hysteresis (consecutive-tick streaks), cooldown after an action,
// and a hard hold while a migration is in flight all live here. ControlLoop
// (src/core/control_loop.h) derives the signals from telemetry snapshots,
// steps the policy, and calls Operator::GrowJoiners / ShrinkJoiners.

#pragma once

#include <cstdint>

#include "src/core/signals.h"

namespace ajoin {

/// Policy knobs. Rates are per-second; ratios are fractions of wall time.
struct AutoscaleConfig {
  /// Live-joiner bounds the policy respects (grow keeps live*4 <= max_live,
  /// shrink keeps live/4 >= min_live). Align max_live with the operator's
  /// allocated slots (initial J << 2*max_expansions).
  uint32_t min_live = 4;
  uint32_t max_live = 64;
  /// Grow when the exchange plane spent at least this fraction of wall time
  /// stalled for credits (downstream cannot keep up). 0 disables the
  /// stall trigger.
  double grow_stall_ratio = 0.10;
  /// Grow when input tuples/sec exceeds this per live joiner. 0 disables
  /// the rate trigger.
  double grow_rate_per_joiner = 0;
  /// Shrink when input tuples/sec falls below this per live joiner (and
  /// nothing is stalled). 0 disables shrinking.
  double shrink_rate_per_joiner = 0;
  /// Hysteresis: consecutive qualifying ticks before acting.
  uint32_t surge_ticks = 2;
  uint32_t idle_ticks = 5;
  /// Ticks to hold after an action (lets the migration land and the
  /// post-scale rates stabilize before re-evaluating).
  uint32_t cooldown_ticks = 5;
};

/// Deterministic scaling decision engine (no engine, no clock, no threads —
/// drive it with synthetic signals in unit tests).
class AutoscalePolicy {
 public:
  enum class Decision { kHold, kGrow, kShrink };

  /// Policy with the given knobs (see AutoscaleConfig defaults).
  explicit AutoscalePolicy(AutoscaleConfig config) : config_(config) {}

  /// Consumes one tick and returns the decision. Semantics, in order:
  /// a migrating tick resets both streaks and holds; a cooldown tick
  /// decrements the cooldown, resets both streaks, and holds; a surge tick
  /// (stall or rate trigger) extends the surge streak and grows once it
  /// reaches surge_ticks — bounds permitting; an idle tick symmetrically
  /// shrinks after idle_ticks; a neutral tick resets both streaks. Every
  /// action arms the cooldown.
  Decision OnSample(const ControlSignals& s) {
    if (s.migrating) {
      surge_streak_ = idle_streak_ = 0;
      return Decision::kHold;
    }
    if (cooldown_ > 0) {
      --cooldown_;
      surge_streak_ = idle_streak_ = 0;
      return Decision::kHold;
    }
    const bool stalled = config_.grow_stall_ratio > 0 &&
                         s.stall_ratio >= config_.grow_stall_ratio;
    const bool rate_surge =
        config_.grow_rate_per_joiner > 0 &&
        s.input_rate > config_.grow_rate_per_joiner * s.live_joiners;
    const bool idle =
        !stalled && config_.shrink_rate_per_joiner > 0 &&
        s.input_rate < config_.shrink_rate_per_joiner * s.live_joiners;
    if (stalled || rate_surge) {
      idle_streak_ = 0;
      if (++surge_streak_ >= config_.surge_ticks &&
          s.live_joiners * 4 <= config_.max_live) {
        surge_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        return Decision::kGrow;
      }
      return Decision::kHold;
    }
    if (idle) {
      surge_streak_ = 0;
      if (++idle_streak_ >= config_.idle_ticks &&
          s.live_joiners / 4 >= config_.min_live &&
          s.live_joiners % 4 == 0) {
        idle_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        return Decision::kShrink;
      }
      return Decision::kHold;
    }
    surge_streak_ = idle_streak_ = 0;
    return Decision::kHold;
  }

  /// Remaining cooldown ticks (testing).
  uint32_t cooldown() const { return cooldown_; }

 private:
  AutoscaleConfig config_;
  uint32_t surge_streak_ = 0;
  uint32_t idle_streak_ = 0;
  uint32_t cooldown_ = 0;
};

}  // namespace ajoin
