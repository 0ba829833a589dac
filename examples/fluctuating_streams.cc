// Adaptivity under fluctuating arrival rates (the paper's §5.4 scenario):
// the |R|/|S| cardinality ratio alternates between k and 1/k; the operator
// keeps re-optimizing its (n,m)-mapping and the ILF stays within 1.25x of
// the optimum (Theorem 4.6).
//
// Doubles as the telemetry-plane demo: the sim run wires a MetricsRegistry
// and a ControlLoop ticked at drain intervals (summary lines below), and
// with an output path argument a second, threaded 4-joiner adaptive run
// samples on the loop's own thread — per-task seqlock snapshots, per-edge
// backpressure counters, and the migration/stall trace ring — and exports
// the series as schema-versioned JSON (tools/validate_telemetry.py checks
// it).
//
// `--autoscale <path>` runs the CI surge smoke instead: a threaded run whose
// ControlLoop autoscales the join and must grow on the surge and shrink
// once the stream goes silent, exporting telemetry whose trace carries both
// scale events and whose decision log carries both accepted actions
// (validate_telemetry.py --require-scale-events enforces it).
//
// `--shed <path>` runs the CI overload smoke: a threaded run whose
// ControlLoop sheds the join and must back the probe-admission rate off
// when the ingress backlog gauge spikes and restore exactness once it
// drains, exporting telemetry whose trace carries shed events, whose
// samples show joiners at a sampled rate, and whose decision log carries
// accepted shed decisions (validate_telemetry.py --require-shed-events
// enforces it).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "src/common/trace_ring.h"
#include "src/core/control_loop.h"
#include "src/core/driver.h"
#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/net/message.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

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

// Surge smoke (--autoscale): a ControlLoop on the threaded engine grows the
// grid under the input surge and folds it back once the stream goes
// silent; the telemetry export must carry both scale trace events and both
// accepted decisions. Exits nonzero if either scale direction never
// happened.
int RunAutoscaleExport(const char* path) {
  Workload w = Workload::Synthetic(/*r_count=*/3000, /*s_count=*/9000,
                                   24, 24, /*key_domain=*/4000,
                                   /*zipf=*/0.0, /*seed=*/13);
  TraceRing trace(1 << 14);
  MetricsRegistry registry;
  ThreadEngine engine{ExchangeConfig{}};

  OperatorConfig config;
  config.spec = w.spec();
  config.machines = 4;
  config.adaptive = true;
  config.epsilon = 0.5;
  config.min_total_before_adapt = 16;
  config.max_expansions = 1;  // 16 allocated slots
  config.registry = &registry;
  config.trace = &trace;
  JoinOperator op(engine, config);
  engine.Start();

  AutoscaleConfig ac;
  ac.min_live = 4;
  ac.max_live = 16;
  ac.grow_stall_ratio = 0;        // deterministic smoke: rate triggers only
  ac.grow_rate_per_joiner = 1;    // any sustained input is a surge
  ac.shrink_rate_per_joiner = 1;  // a silent stream is idle
  ac.surge_ticks = 1;
  ac.idle_ticks = 2;
  ac.cooldown_ticks = 1;
  ControlLoop::Options lopts;
  lopts.period_us = 1000;
  ControlLoop loop(&registry, lopts);
  const size_t scaled = loop.Autoscale(op, op.joiner_task_ids(), ac);
  loop.SetEdgeSource([&engine] { return engine.edge_stats(); });
  loop.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  loop.SetTraceSource(&trace);
  const auto grows = [&] {
    return loop.accepted_count(scaled, ControlLoop::Action::kGrow);
  };
  const auto shrinks = [&] {
    return loop.accepted_count(scaled, ControlLoop::Action::kShrink);
  };
  loop.Start();

  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = 4.0;
  auto source = w.MakeSource(policy);
  StreamTuple tuple;
  uint64_t pushed = 0;
  while (source->Next(&tuple)) {
    op.Push(tuple);
    // Keep the surge visible across policy ticks until the first grow
    // lands (the pacing only shortcuts once the loop has acted).
    if (++pushed % 50 == 0 && grows() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  op.FlushInput();
  const bool grew = PollUntil([&] { return grows() >= 1; }, 15000);
  // Input has gone silent: the idle trigger must shrink back down.
  const bool shrank = PollUntil([&] { return shrinks() >= 1; }, 15000);
  loop.Stop();
  op.SendEos();
  engine.WaitQuiescent();

  uint64_t grow_events = 0, shrink_events = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == TraceEventKind::kScaleGrow) ++grow_events;
    if (ev.kind == TraceEventKind::kScaleShrink) ++shrink_events;
  }
  std::printf("autoscale smoke: grows %llu shrinks %llu (trace: %llu grow, "
              "%llu shrink events)\n",
              static_cast<unsigned long long>(grows()),
              static_cast<unsigned long long>(shrinks()),
              static_cast<unsigned long long>(grow_events),
              static_cast<unsigned long long>(shrink_events));
  const bool wrote = loop.WriteJson(path, "fluctuating_streams_autoscale");
  std::printf("  wrote %s: %s\n", path, wrote ? "ok" : "FAILED");
  engine.Shutdown();
  return (grew && shrank && wrote) ? 0 : 1;
}

// Overload smoke (--shed): a ControlLoop on the threaded engine backs the
// admission rate off when the ingress backlog gauge spikes mid-stream and
// walks it back to exact once the backlog drains; the telemetry export
// must carry shed trace events, mid-shed joiner samples and the accepted
// shed decisions. Exits nonzero if either transition never happened.
int RunShedExport(const char* path) {
  Workload w = Workload::Synthetic(/*r_count=*/4000, /*s_count=*/12000,
                                   24, 24, /*key_domain=*/4000,
                                   /*zipf=*/0.0, /*seed=*/17);
  TraceRing trace(1 << 14);
  MetricsRegistry registry;
  ThreadEngine engine{ExchangeConfig{}};

  OperatorConfig config;
  config.spec = w.spec();
  config.machines = 4;
  config.adaptive = false;  // static grid: every probe is steady-state gated
  config.initial = MidMapping(4);
  config.use_initial = true;
  config.registry = &registry;
  config.trace = &trace;
  JoinOperator op(engine, config);
  engine.Start();

  ShedConfig sc;
  sc.enter_stall_ratio = 0;  // deterministic smoke: backlog gauge triggers
  sc.enter_backlog = 100;
  sc.exit_backlog = 10;
  sc.overload_ticks = 1;
  sc.recover_ticks = 1;
  sc.cooldown_ticks = 0;
  ControlLoop::Options lopts;
  lopts.period_us = 1000;
  ControlLoop loop(&registry, lopts);
  const size_t shed = loop.Shed(op, op.joiner_task_ids(), sc);
  std::atomic<uint64_t> backlog{0};
  loop.SetBacklogSource(
      [&backlog] { return backlog.load(std::memory_order_relaxed); });
  loop.SetEdgeSource([&engine] { return engine.edge_stats(); });
  loop.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  loop.SetTraceSource(&trace);
  loop.Start();

  const uint32_t exact_ppm = static_cast<uint32_t>(kShedExactPpm);
  auto joiners_at = [&registry](uint32_t rate) {
    size_t n = 0;
    for (const TaskSnapshot& task : registry.Snapshot()) {
      if (task.kind != TaskKind::kJoiner || !task.joiner.active) continue;
      ++n;
      if (task.joiner.shed_rate_ppm != rate) return false;
    }
    return n > 0;
  };

  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = 4.0;
  auto source = w.MakeSource(policy);
  StreamTuple tuple;
  uint64_t pushed = 0;
  bool shed_applied = false;
  const uint64_t half = w.total_count() / 2;
  while (source->Next(&tuple)) {
    op.Push(tuple);
    if (++pushed == half) {
      // Mid-stream overload: the gauge spikes, the loop must shed,
      // and the rest of the stream probes under the sampled rate so the
      // export carries mid-shed joiner samples and skipped-probe counters.
      backlog.store(100000, std::memory_order_relaxed);
      shed_applied = PollUntil(
          [&] {
            const uint32_t rate = loop.shed_rate_ppm(shed);
            return rate < exact_ppm && joiners_at(rate);
          },
          15000);
    }
  }
  op.FlushInput();
  engine.WaitQuiescent();
  // Give the loop a few periods of samples with the joiners still shedding.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Backlog drained: the loop must restore exactness.
  backlog.store(0, std::memory_order_relaxed);
  const bool recovered = PollUntil(
      [&] {
        return loop.shed_rate_ppm(shed) == exact_ppm && joiners_at(exact_ppm);
      },
      15000);
  loop.Stop();
  op.SendEos();
  engine.WaitQuiescent();

  uint64_t enter_events = 0, exit_events = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == TraceEventKind::kShedEnter) ++enter_events;
    if (ev.kind == TraceEventKind::kShedExit) ++exit_events;
  }
  std::printf("shed smoke: rate changes %llu, shed %s, recovered %s "
              "(trace: %llu enter, %llu exit events)\n",
              static_cast<unsigned long long>(
                  loop.accepted_count(shed, ControlLoop::Action::kShedRate)),
              shed_applied ? "ok" : "MISSING",
              recovered ? "ok" : "MISSING",
              static_cast<unsigned long long>(enter_events),
              static_cast<unsigned long long>(exit_events));
  const bool wrote = loop.WriteJson(path, "fluctuating_streams_shed");
  std::printf("  wrote %s: %s\n", path, wrote ? "ok" : "FAILED");
  engine.Shutdown();
  return (shed_applied && recovered && enter_events >= 1 && exit_events >= 1 &&
          wrote)
             ? 0
             : 1;
}

// Phase 2 (optional, enabled by an output path argument): the same
// fluctuating workload on the threaded engine with live sampling during
// migrations, exported as JSON. Small rings + small batches so credit
// stalls actually occur and show up in the per-edge series.
int RunThreadedExport(const char* path) {
  const double k = 4.0;
  Workload w = Workload::Synthetic(/*r_count=*/40000, /*s_count=*/40000,
                                   32, 32, /*key_domain=*/20000,
                                   /*zipf=*/0.0, /*seed=*/7);
  TraceRing trace(4096);
  MetricsRegistry registry;

  ExchangeConfig xc;
  xc.batch_size = 16;
  xc.ring_slots = 4;
  xc.trace = &trace;
  ThreadEngine engine(xc);

  OperatorConfig config;
  config.spec = w.spec();
  config.machines = 4;
  config.adaptive = true;
  config.keep_rows = false;
  config.min_total_before_adapt = w.total_count() / 100;
  config.registry = &registry;
  config.trace = &trace;
  JoinOperator op(engine, config);
  engine.Start();

  ControlLoop::Options opts;
  opts.period_us = 2000;  // 2 ms: plenty of mid-stream samples on a short run
  ControlLoop loop(&registry, opts);
  loop.SetEdgeSource([&engine] { return engine.edge_stats(); });
  loop.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  loop.SetTraceSource(&trace);
  loop.Start();

  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = k;
  auto source = w.MakeSource(policy);
  op.SetIngressBatch(16);
  StreamTuple tuple;
  while (source->Next(&tuple)) op.Push(tuple);
  op.SendEos();
  engine.WaitQuiescent();
  loop.Stop();

  std::printf("\nthreaded 4J export: %llu samples, %llu trace events\n",
              static_cast<unsigned long long>(loop.samples_taken()),
              static_cast<unsigned long long>(trace.total_recorded()));
  const std::vector<TelemetrySample> series = loop.series();
  if (!series.empty()) {
    std::printf("  final: %s\n",
                ControlLoop::SummaryLine(series.back()).c_str());
  }
  const bool ok = loop.WriteJson(path, "fluctuating_streams_4j");
  std::printf("  wrote %s: %s\n", path, ok ? "ok" : "FAILED");
  engine.Shutdown();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--autoscale") == 0) {
    return RunAutoscaleExport(argv[2]);
  }
  if (argc > 2 && std::strcmp(argv[1], "--shed") == 0) {
    return RunShedExport(argv[2]);
  }
  const double k = 4.0;
  Workload w = Workload::Synthetic(/*r_count=*/120000, /*s_count=*/120000,
                                   32, 32, /*key_domain=*/60000,
                                   /*zipf=*/0.0, /*seed=*/3);
  SimEngine engine;
  MetricsRegistry registry;
  OperatorConfig config;
  config.spec = w.spec();
  config.machines = 32;
  config.adaptive = true;
  config.keep_rows = false;
  config.min_total_before_adapt = w.total_count() / 100;
  config.registry = &registry;
  JoinOperator op(engine, config);
  engine.Start();

  // Drain-interval sampling: the sim engine has no threads, so RunWorkload
  // ticks the loop at every snapshot point.
  ControlLoop loop(&registry);

  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = k;
  RunOptions opts;
  opts.arrival = policy;
  opts.snapshots = 20;
  opts.control = &loop;
  RunResult r = RunWorkload(engine, op, w, opts);

  std::printf("fluctuation factor k = %.0f, J = 32\n\n", k);
  std::printf("%-8s %10s %12s %10s\n", "progress", "|R|/|S|", "ILF/ILF*",
              "mapping?");
  size_t mig = 0;
  for (const ProgressPoint& p : r.series) {
    std::printf("%7.0f%% %10.3f %12.3f %10s\n", p.fraction * 100, p.rs_ratio,
                p.ilf_ratio, p.migrating ? "migrating" : "");
  }
  std::printf("\nmapping changes:\n");
  for (const MigrationRecord& rec : r.migration_log) {
    ++mig;
    std::printf("  #%zu %s -> %s (~%llu tuples seen)\n", mig,
                rec.from.ToString().c_str(), rec.to.ToString().c_str(),
                static_cast<unsigned long long>(rec.at_scaled_tuples));
  }
  std::printf("\njoin results: %llu; max ILF/ILF* %.3f (Theorem 4.6 bound "
              "1.25)\n",
              static_cast<unsigned long long>(r.outputs), r.max_ilf_ratio);

  // Telemetry summary: every 5th drain-interval sample plus the last.
  const std::vector<TelemetrySample> series = loop.series();
  std::printf("\ntelemetry (drain-interval samples, %zu taken):\n",
              series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    if (i % 5 != 0 && i + 1 != series.size()) continue;
    std::printf("  %s\n", ControlLoop::SummaryLine(series[i]).c_str());
  }

  if (argc > 1) return RunThreadedExport(argv[1]);
  return 0;
}
