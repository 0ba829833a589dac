// The control loop (paper §4: the controller can act only on what it
// observes of the running operator). One thread samples the telemetry plane
// at a fixed period. Each tick takes one MetricsRegistry snapshot (plus the
// optional exchange-plane, per-edge and ingress-backlog sources), appends it
// to a ring-buffered time series, derives every attached operator's
// ControlSignals record (src/core/signals.h) from that one sample, and steps
// the operator's AutoscalePolicy (src/core/autoscale.h) and ShedPolicy
// (src/core/shed.h) on it. Actions go through Operator::GrowJoiners /
// ShrinkJoiners / SetShedRate, and each one lands in a single decision log
// next to the signals record that triggered it.
// WriteJson exports the series, the decision log and the trace ring as
// stable-schema JSON (schema_version 1, checked by
// tools/validate_telemetry.py).
//
// The two policies stay independent: both see the same signals and each
// runs its own state machine; nothing arbitrates between them.
//
// Without a thread (the sim engine's drain-interval path, unit tests), call
// TickNow with a logical timestamp instead of Start().

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/trace_ring.h"
#include "src/core/autoscale.h"
#include "src/core/shed.h"
#include "src/core/signals.h"
#include "src/exchange/exchange.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

class Operator;  // src/core/operator.h

/// One tick's observation: the registry snapshot plus the source rollups.
struct TelemetrySample {
  uint64_t t_us = 0;
  std::vector<TaskSnapshot> tasks;
  std::vector<EdgeStatsSnapshot> edges;  // empty without an edge source
  ExchangeStatsSnapshot exchange;        // zeroed without an exchange source
  uint64_t backlog = 0;                  // zero without a backlog source
};

/// Samples the telemetry plane, steps the attached operators' scale and
/// shed policies, and keeps the series and the decision log.
class ControlLoop {
 public:
  struct Options {
    /// Tick period of the Start()ed thread.
    uint64_t period_us = 10000;
    /// Ring-buffer capacity in samples; older samples are dropped.
    size_t capacity = 1024;
  };

  /// What a decision asked the operator to do.
  enum class Action { kGrow, kShrink, kShedRate };

  /// One policy action, with the signals the policy saw.
  struct Decision {
    /// Timestamp of the sample that triggered it.
    uint64_t t_us = 0;
    /// Operator index (the value Autoscale / Shed returned).
    size_t op = 0;
    Action action = Action::kGrow;
    /// kGrow/kShrink: live joiners before and requested after (one 4x
    /// step); kShedRate: admission rate (ppm) before and after.
    uint64_t prev = 0;
    uint64_t next = 0;
    /// The operator took the request.
    bool accepted = false;
    ControlSignals signals;
  };

  /// Observes `registry` (not owned; must outlive the loop), default
  /// options (10 ms period, 1024-sample ring).
  explicit ControlLoop(const MetricsRegistry* registry);
  /// Observes `registry` with the given options.
  ControlLoop(const MetricsRegistry* registry, Options options);
  ~ControlLoop();

  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  /// Adds plane-wide exchange stats to every sample (e.g. bind
  /// ThreadEngine::exchange_stats); the stall-ratio signal needs it. Set
  /// before Start().
  void SetExchangeSource(std::function<ExchangeStatsSnapshot()> source);

  /// Adds per-edge exchange stats to every sample (e.g. bind
  /// ThreadEngine::edge_stats). Set before Start().
  void SetEdgeSource(std::function<std::vector<EdgeStatsSnapshot>()> source);

  /// Adds an instantaneous ingress-backlog gauge to every sample; the shed
  /// backlog trigger needs it. Set before Start().
  void SetBacklogSource(std::function<uint64_t()> source);

  /// Attaches a trace ring whose events WriteJson dumps alongside the
  /// series. Not owned. Set before Start().
  void SetTraceSource(const TraceRing* trace);

  /// Scales `op` (not owned; must outlive the loop) with an AutoscalePolicy
  /// over the joiners whose task ids are in `joiner_tasks` (for a
  /// JoinOperator, its joiner_task_ids()). Returns the operator index that
  /// decisions carry; attaching the same operator to Shed reuses it. Call
  /// before Start(), once per operator.
  size_t Autoscale(Operator& op, std::vector<int> joiner_tasks,
                   AutoscaleConfig config);

  /// Sheds `op` with a ShedPolicy over `joiner_tasks`; see Autoscale.
  size_t Shed(Operator& op, std::vector<int> joiner_tasks, ShedConfig config);

  /// Starts the loop thread: a tick now, then one per period. No-op if
  /// already running.
  void Start();

  /// Stops the thread, then takes one final telemetry-only sample (no
  /// policy steps), so the series ends with a fresh observation. No-op if
  /// not running. A shed rate already posted stays in effect.
  void Stop();

  /// One tick stamped `t_us`: samples, steps every attached policy, acts,
  /// and logs the actions. The thread runs this each period; without
  /// Start() (sim drivers, tests) call it directly with logical time —
  /// from one thread at a time, never while the loop's thread runs.
  void TickNow(uint64_t t_us);

  /// Copy of the ring-buffered series, oldest first.
  std::vector<TelemetrySample> series() const;

  /// Total samples ever taken (including ones the ring has dropped).
  uint64_t samples_taken() const;

  /// Every decision so far, in order.
  std::vector<Decision> decisions() const;

  /// Accepted decisions of `action` for operator `op`.
  uint64_t accepted_count(size_t op, Action action) const;

  /// Admission rate (ppm) of operator `op`'s last accepted shed decision;
  /// kShedExactPpm before any.
  uint32_t shed_rate_ppm(size_t op) const;

  /// One-line human summary of a sample (tasks rolled up, stall totals).
  static std::string SummaryLine(const TelemetrySample& sample);

  /// Writes the series, the decision log and the trace events (if a trace
  /// source is attached) as stable-schema JSON: {"telemetry": name,
  /// "schema_version": 1, "meta": {...}, "samples": [...], "decisions":
  /// [...], "trace": [...]}. Returns false on I/O error.
  bool WriteJson(const std::string& path, const std::string& name) const;

 private:
  struct Attached {
    Operator* op = nullptr;
    std::unordered_set<int> joiner_tasks;
    AutoscaleConfig autoscale_config;
    ShedConfig shed_config;
    std::optional<AutoscalePolicy> autoscale;
    std::optional<ShedPolicy> shed;
    uint64_t last_in_tuples = 0;  // tick-thread state
  };

  size_t Attach(Operator& op, std::vector<int> joiner_tasks);
  TelemetrySample Sample(uint64_t t_us);
  void Step(size_t index, uint64_t t_us, const ControlSignals& signals);
  void Loop();

  const MetricsRegistry* registry_;
  const Options options_;
  std::function<ExchangeStatsSnapshot()> exchange_source_;
  std::function<std::vector<EdgeStatsSnapshot>()> edge_source_;
  std::function<uint64_t()> backlog_source_;
  const TraceRing* trace_ = nullptr;
  std::vector<Attached> ops_;  // fixed once the loop starts

  // Deltas between ticks (tick-thread state).
  uint64_t last_t_us_ = 0;
  uint64_t last_stall_ns_ = 0;
  bool have_last_ = false;

  mutable std::mutex mu_;  // guards series_, taken_, decisions_
  std::deque<TelemetrySample> series_;
  uint64_t taken_ = 0;
  std::vector<Decision> decisions_;

  std::mutex stop_mu_;  // guards stop_, running_
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;  // last: uses every member above
};

}  // namespace ajoin
