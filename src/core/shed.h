// Overload survival: adaptive load shedding with unbiased sampled output.
// When the input rate outruns what the operator can absorb — and scaling out
// is capped or too slow — the only remaining lever is to do less work per
// tuple. Shedding gates *probes* (never stores or migrations) with a
// Bernoulli admission rate p, and every result emitted under that rate
// carries Horvitz-Thompson weight 1/p, so weighted aggregates over the
// sampled output remain unbiased estimators of the exact join.
//
// ShedPolicy is the decision logic, like AutoscalePolicy
// (src/core/autoscale.h): a pure, deterministic state machine, testable
// without an engine — feed it one ControlSignals record
// (src/core/signals.h) per tick, get back the admission rate (ppm) the
// operator should run at. It reads the stall ratio and the backlog.
// Hysteresis (consecutive-tick streaks), cooldown after a rate change, and
// multiplicative backoff/recovery all live here. ControlLoop
// (src/core/control_loop.h) derives the signals from telemetry snapshots
// and the ingress-backlog gauge, steps the policy, and calls
// Operator::SetShedRate on every rate change.

#pragma once

#include <cstdint>

#include "src/core/signals.h"
#include "src/net/message.h"

namespace ajoin {

/// Policy knobs. Ratios are fractions of wall time; rates are ppm.
struct ShedConfig {
  /// Begin (or deepen) shedding when the exchange plane spent at least this
  /// fraction of the tick credit-stalled. 0 disables the stall trigger.
  double enter_stall_ratio = 0.20;
  /// Recovery requires the stall ratio at or below this.
  double exit_stall_ratio = 0.05;
  /// Begin (or deepen) shedding when the ingress backlog gauge reaches this
  /// many envelopes. 0 disables the backlog trigger.
  uint64_t enter_backlog = 0;
  /// Recovery requires the backlog at or below this.
  uint64_t exit_backlog = 0;
  /// Hysteresis: consecutive qualifying ticks before acting.
  uint32_t overload_ticks = 2;
  uint32_t recover_ticks = 4;
  /// Ticks to hold after a rate change (lets the new rate propagate through
  /// the reshufflers and the signals stabilize before re-evaluating).
  uint32_t cooldown_ticks = 2;
  /// Admission-rate floor: each shed step divides the rate by shed_factor,
  /// never below this (the Horvitz-Thompson weight stays bounded).
  uint32_t min_rate_ppm = 62500;  // 1/16
  /// Multiplicative step for backoff (rate /= factor) and recovery
  /// (rate *= factor). Must be >= 2.
  uint32_t shed_factor = 2;
};

/// Deterministic admission-rate state machine (no engine, no clock, no
/// threads — drive it with synthetic signals in unit tests).
class ShedPolicy {
 public:
  explicit ShedPolicy(ShedConfig config) : config_(config) {
    if (config_.shed_factor < 2) config_.shed_factor = 2;
    if (config_.min_rate_ppm == 0) config_.min_rate_ppm = 1;
  }

  /// Consumes one tick and returns the admission rate (ppm) the operator
  /// should run at after it — kShedExactPpm when exact. Semantics, in
  /// order: a cooldown tick decrements the cooldown, resets both streaks,
  /// and holds; an overloaded tick (stall or backlog trigger) extends the
  /// overload streak and divides the rate by shed_factor (down to
  /// min_rate_ppm) once it reaches overload_ticks; a recovered tick (below
  /// both exit thresholds while shedding) symmetrically multiplies the rate
  /// back after recover_ticks; a neutral tick resets both streaks. Every
  /// rate change arms the cooldown.
  uint32_t OnSample(const ControlSignals& s) {
    if (cooldown_ > 0) {
      --cooldown_;
      overload_streak_ = recover_streak_ = 0;
      return rate_ppm_;
    }
    const bool stalled = config_.enter_stall_ratio > 0 &&
                         s.stall_ratio >= config_.enter_stall_ratio;
    const bool backlogged =
        config_.enter_backlog > 0 && s.backlog >= config_.enter_backlog;
    const bool calm =
        s.stall_ratio <= config_.exit_stall_ratio &&
        (config_.enter_backlog == 0 || s.backlog <= config_.exit_backlog);
    if (stalled || backlogged) {
      recover_streak_ = 0;
      if (++overload_streak_ >= config_.overload_ticks &&
          rate_ppm_ > config_.min_rate_ppm) {
        overload_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        const uint32_t next = rate_ppm_ / config_.shed_factor;
        rate_ppm_ = next < config_.min_rate_ppm ? config_.min_rate_ppm : next;
      }
      return rate_ppm_;
    }
    if (calm && shedding()) {
      overload_streak_ = 0;
      if (++recover_streak_ >= config_.recover_ticks) {
        recover_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        const uint64_t next =
            static_cast<uint64_t>(rate_ppm_) * config_.shed_factor;
        rate_ppm_ = next >= static_cast<uint64_t>(kShedExactPpm)
                        ? static_cast<uint32_t>(kShedExactPpm)
                        : static_cast<uint32_t>(next);
      }
      return rate_ppm_;
    }
    overload_streak_ = recover_streak_ = 0;
    return rate_ppm_;
  }

  /// Current admission rate in ppm (kShedExactPpm = exact).
  uint32_t rate_ppm() const { return rate_ppm_; }
  /// True while the policy holds a sampled (non-exact) rate.
  bool shedding() const {
    return rate_ppm_ < static_cast<uint32_t>(kShedExactPpm);
  }
  /// Remaining cooldown ticks (testing).
  uint32_t cooldown() const { return cooldown_; }

 private:
  ShedConfig config_;
  uint32_t rate_ppm_ = static_cast<uint32_t>(kShedExactPpm);
  uint32_t overload_streak_ = 0;
  uint32_t recover_streak_ = 0;
  uint32_t cooldown_ = 0;
};

}  // namespace ajoin
