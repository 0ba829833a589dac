// Elastic autoscaling under a 10x input surge (section 4.3 closed into a
// runtime loop): a calm paced phase, then the input arrives full speed. A
// statically under-provisioned operator (4 joiners) rides out the surge on
// backpressure; a statically over-provisioned one (16 joiners) absorbs it;
// the autoscaled operator starts at 4, its ControlLoop sees the surge
// through the telemetry plane (credit-stall ratio or per-joiner input rate)
// and grows the grid mid-stream via the migration protocol — and must
// recover >= 80% of the over-provisioned throughput. Once the stream goes
// silent it folds back down, so the exported telemetry carries both scale
// trace events and both accepted decisions.
//
// Writes BENCH_fig_autoscale.json plus the autoscaled run's telemetry
// export (autoscale_telemetry.json, schema-checked by
// tools/validate_telemetry.py --require-scale-events).

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/common/trace_ring.h"
#include "src/core/control_loop.h"
#include "src/core/operator.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"

using namespace ajoin;
using namespace ajoin::bench;

namespace {

bool PollUntil(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

double SecsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<StreamTuple> MakePhase(uint64_t count, uint64_t seed) {
  std::vector<StreamTuple> out;
  out.reserve(count);
  Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    StreamTuple t;
    t.rel = rng.NextBool(0.5) ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(20000));
    t.bytes = 16;
    out.push_back(t);
  }
  return out;
}

enum class Mode { kStatic4, kStatic16, kAutoscale };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kStatic4: return "static-4";
    case Mode::kStatic16: return "static-16-overprovisioned";
    case Mode::kAutoscale: return "autoscaled-4-to-16";
  }
  return "?";
}

struct SurgeResult {
  double surge_secs = 0;
  uint64_t outputs = 0;
  uint64_t grows = 0;
  uint64_t shrinks = 0;
  uint64_t grow_events = 0;
  uint64_t shrink_events = 0;
};

SurgeResult RunSurge(Mode mode, const std::vector<StreamTuple>& calm,
                     const std::vector<StreamTuple>& surge,
                     const char* telemetry_path) {
  // Small rings for every mode so an under-provisioned grid shows up as
  // credit stalls rather than unbounded queueing.
  ExchangeConfig xc;
  xc.batch_size = 32;
  xc.ring_slots = 4;
  TraceRing trace(1 << 14);
  if (mode == Mode::kAutoscale) xc.trace = &trace;
  ThreadEngine engine(xc);
  MetricsRegistry registry;

  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = mode == Mode::kStatic16 ? 16 : 4;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 512;
  cfg.max_expansions = mode == Mode::kAutoscale ? 1 : 0;
  cfg.keep_rows = false;
  cfg.registry = &registry;
  if (mode == Mode::kAutoscale) cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  ControlLoop::Options lopts;
  lopts.period_us = 1000;
  ControlLoop loop(&registry, lopts);
  size_t scaled = 0;
  if (mode == Mode::kAutoscale) {
    loop.SetEdgeSource([&engine] { return engine.edge_stats(); });
    loop.SetExchangeSource([&engine] { return engine.exchange_stats(); });
    loop.SetTraceSource(&trace);

    AutoscaleConfig ac;
    ac.min_live = 4;
    ac.max_live = 16;
    // Either load signal grows: the exchange plane stalling for credits, or
    // the per-joiner input rate far above the calm phase's ~10k/s/joiner.
    ac.grow_stall_ratio = 0.05;
    ac.grow_rate_per_joiner = 15000;
    ac.shrink_rate_per_joiner = 1000;  // post-surge silence folds back down
    ac.surge_ticks = 1;
    ac.idle_ticks = 2;
    ac.cooldown_ticks = 2;
    scaled = loop.Autoscale(op, op.joiner_task_ids(), ac);
    loop.Start();
  }

  // Calm phase: paced to ~40k tuples/s, well under any grow trigger.
  for (size_t i = 0; i < calm.size(); ++i) {
    op.Push(calm[i]);
    if (i % 40 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  op.FlushInput();
  engine.WaitQuiescent();

  // Surge: the full batch arrives as fast as the operator accepts it; the
  // window closes when the engine has drained every in-flight tuple.
  const auto t0 = std::chrono::steady_clock::now();
  for (const StreamTuple& t : surge) op.Push(t);
  op.FlushInput();
  engine.WaitQuiescent();

  SurgeResult r;
  r.surge_secs = SecsSince(t0);
  if (mode == Mode::kAutoscale) {
    // Outside the timed window: the silent stream triggers the fold-down.
    PollUntil(
        [&] {
          return loop.accepted_count(scaled, ControlLoop::Action::kShrink) >= 1;
        },
        15000);
    loop.Stop();
  }
  op.SendEos();
  engine.WaitQuiescent();
  if (mode == Mode::kAutoscale) {
    r.grows = loop.accepted_count(scaled, ControlLoop::Action::kGrow);
    r.shrinks = loop.accepted_count(scaled, ControlLoop::Action::kShrink);
    for (const TraceEvent& ev : trace.Snapshot()) {
      if (ev.kind == TraceEventKind::kScaleGrow) ++r.grow_events;
      if (ev.kind == TraceEventKind::kScaleShrink) ++r.shrink_events;
    }
    if (telemetry_path != nullptr) {
      loop.WriteJson(telemetry_path, "fig_autoscale");
    }
  }
  r.outputs = op.TotalOutputs();
  engine.Shutdown();
  return r;
}

}  // namespace

int main() {
  PrintHeader(
      "Autoscaling under a 10x surge: static 4 / static 16 / elastic 4->16");
  const std::vector<StreamTuple> calm = MakePhase(8000, 21);
  const std::vector<StreamTuple> surge = MakePhase(80000, 22);

  JsonResult out("fig_autoscale");
  out.meta()
      .Add("calm_tuples", static_cast<uint64_t>(calm.size()))
      .Add("surge_tuples", static_cast<uint64_t>(surge.size()))
      .Add("required_recovery", 0.8);

  std::printf("\n%-28s %14s %12s %8s %8s\n", "mode", "surge tuples/s",
              "surge secs", "grows", "shrinks");
  double tput[3] = {0, 0, 0};
  uint64_t outputs[3] = {0, 0, 0};
  const Mode modes[3] = {Mode::kStatic4, Mode::kStatic16, Mode::kAutoscale};
  for (int i = 0; i < 3; ++i) {
    const bool scaled = modes[i] == Mode::kAutoscale;
    SurgeResult r = RunSurge(modes[i], calm, surge,
                             scaled ? "autoscale_telemetry.json" : nullptr);
    tput[i] = static_cast<double>(surge.size()) / r.surge_secs;
    outputs[i] = r.outputs;
    std::printf("%-28s %14.0f %12.3f %8llu %8llu\n", ModeName(modes[i]),
                tput[i], r.surge_secs,
                static_cast<unsigned long long>(r.grows),
                static_cast<unsigned long long>(r.shrinks));
    JsonRow& row = out.AddRow();
    row.Add("mode", ModeName(modes[i]))
        .Add("surge_tuples_per_sec", tput[i])
        .Add("surge_secs", r.surge_secs)
        .Add("outputs", r.outputs)
        .Add("grows", r.grows)
        .Add("shrinks", r.shrinks)
        .Add("trace_scale_grow_events", r.grow_events)
        .Add("trace_scale_shrink_events", r.shrink_events);
  }

  const double recovery = tput[2] / tput[1];
  const bool exact = outputs[0] == outputs[1] && outputs[1] == outputs[2];
  out.meta().Add("recovery_vs_overprovisioned", recovery);
  std::printf("\nautoscaled recovery vs over-provisioned: %.2fx "
              "(required >= 0.80) %s\n", recovery,
              recovery >= 0.8 ? "OK" : "BELOW TARGET");
  std::printf("output counts identical across modes: %s (%llu results)\n",
              exact ? "yes" : "NO", static_cast<unsigned long long>(outputs[0]));
  out.Write();
  return (recovery >= 0.8 && exact) ? 0 : 1;
}
