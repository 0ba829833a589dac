// Elastic runtime scaling (section 4.3, closed into a live loop): a
// ControlLoop thread watches a running threaded join through the telemetry
// plane and adds/retires joiner machines mid-stream — the migration
// protocol (Alg. 3) reshapes the grid without pausing the input, and the
// output stays exact throughout.
//
// The demo drives a surge/idle cycle: paced input keeps the rate trigger
// below threshold, then the full-speed burst trips it (4 -> 16 joiners);
// once the stream goes silent the idle trigger folds the grid back down
// (16 -> 4). The loop's decision log and the controller's migration log
// show the round trip.

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "src/common/random.h"
#include "src/common/stopwatch.h"
#include "src/core/control_loop.h"
#include "src/core/operator.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"

using namespace ajoin;

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


}  // namespace

int main() {
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  OperatorConfig config;
  config.spec = MakeEquiJoin(0, 0);
  config.machines = 4;
  config.adaptive = true;
  config.epsilon = 0.5;
  config.min_total_before_adapt = 16;
  config.max_expansions = 1;  // 16 allocated slots; 12 start dormant
  config.registry = &registry;
  JoinOperator op(engine, config);
  engine.Start();

  AutoscaleConfig ac;
  ac.min_live = 4;
  ac.max_live = 16;
  ac.grow_stall_ratio = 0;        // deterministic demo: rate triggers only
  ac.grow_rate_per_joiner = 1;    // any sustained input is a surge
  ac.shrink_rate_per_joiner = 1;  // a silent stream is idle
  ac.surge_ticks = 1;
  ac.idle_ticks = 2;
  ac.cooldown_ticks = 1;
  ControlLoop::Options opts;
  opts.period_us = 1000;
  ControlLoop loop(&registry, opts);
  const size_t scaled = loop.Autoscale(op, op.joiner_task_ids(), ac);
  loop.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  const auto grows = [&] {
    return loop.accepted_count(scaled, ControlLoop::Action::kGrow);
  };
  const auto shrinks = [&] {
    return loop.accepted_count(scaled, ControlLoop::Action::kShrink);
  };
  const uint64_t t0_us = SteadyNowMicros();  // the loop's clock
  loop.Start();

  Rng rng(11);
  const int kTuples = 12000;
  for (int i = 0; i < kTuples; ++i) {
    StreamTuple t;
    t.rel = rng.NextBool(0.25) ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(4000));
    t.bytes = 24;
    op.Push(t);
    // Keep the surge visible across policy ticks until the first grow lands
    // (pacing only shortcuts once the loop has acted).
    if (i % 50 == 0 && grows() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  op.FlushInput();
  PollUntil([&] { return grows() >= 1; }, 15000);
  // Silence: the idle trigger folds the grid back down.
  PollUntil([&] { return shrinks() >= 1; }, 15000);
  loop.Stop();
  op.SendEos();
  engine.WaitQuiescent();

  std::printf("streamed %d tuples into a 4-joiner operator "
              "(16 allocated slots)\n\n", kTuples);
  std::printf("autoscale decisions:\n");
  for (const ControlLoop::Decision& d : loop.decisions()) {
    std::printf("  t=%8.1fms %-6s live=%2llu -> %2llu rate=%8.0f/s%s\n",
                static_cast<double>(d.t_us - t0_us) / 1e3,
                d.action == ControlLoop::Action::kGrow ? "grow" : "shrink",
                static_cast<unsigned long long>(d.prev),
                static_cast<unsigned long long>(d.next),
                d.signals.input_rate, d.accepted ? "" : " (refused)");
  }
  std::printf("\nmigration log:\n");
  for (const MigrationRecord& rec : op.controller()->log()) {
    std::printf("  epoch %u: %s -> %s%s%s (~%llu tuples)\n", rec.epoch,
                rec.from.ToString().c_str(), rec.to.ToString().c_str(),
                rec.expansion ? " EXPANSION" : "",
                rec.contraction ? " CONTRACTION" : "",
                static_cast<unsigned long long>(rec.at_scaled_tuples));
  }
  uint32_t live = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind == TaskKind::kJoiner && task.joiner.active) ++live;
  }
  std::printf("\nfinal grid: %s — %u live joiners (grows %llu, shrinks "
              "%llu)\n",
              op.controller()->current_mapping(0).ToString().c_str(), live,
              static_cast<unsigned long long>(grows()),
              static_cast<unsigned long long>(shrinks()));
  std::printf("join results: %llu\n",
              static_cast<unsigned long long>(op.TotalOutputs()));
  engine.Shutdown();
  const bool ok = grows() >= 1 && shrinks() >= 1;
  std::printf("%s\n", ok ? "round trip complete" : "NO ROUND TRIP");
  return ok ? 0 : 1;
}
