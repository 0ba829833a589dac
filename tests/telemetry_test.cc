// Telemetry plane: seqlock snapshot cells, the task registry, the trace
// ring, per-edge backpressure counters, and the control loop's sample
// series — including the TSan stress case: continuous registry snapshots +
// edge stats + trace reads while a 4-joiner adaptive workload runs live
// migrations on the tiny-batch/tiny-ring exchange config.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/trace_ring.h"
#include "src/core/control_loop.h"
#include "src/core/driver.h"
#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

std::vector<StreamTuple> MakeStream(uint64_t n_r, uint64_t n_s,
                                    int64_t key_domain, uint64_t seed) {
  std::vector<StreamTuple> out;
  Rng rng(seed);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    bool pick_r = left_r > 0 &&
                  (left_s == 0 || rng.Uniform(left_r + left_s) < left_r);
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(key_domain)));
    t.bytes = 16;
    out.push_back(t);
    if (pick_r) {
      --left_r;
    } else {
      --left_s;
    }
  }
  return out;
}

// ---- Seqlock cell -----------------------------------------------------------

TEST(MetricsSeqlock, NoTornReadsUnderContention) {
  // Writer publishes payloads whose words satisfy a fixed relation; readers
  // must never observe a mix of two publishes. The initial (all-zero) state
  // is the one payload that predates any publish.
  SeqlockCell<4> cell;
  std::atomic<bool> stop{false};
  std::thread writer([&cell, &stop] {
    uint64_t w[4];
    for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      w[0] = i;
      w[1] = i * 3;
      w[2] = ~i;
      w[3] = i ^ 0x5a5a5a5a;
      cell.Publish(w);
    }
  });
  const int kReaders = 3;
  std::vector<int> torn(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &torn, r] {
      uint64_t out[4];
      for (int i = 0; i < 200000; ++i) {
        cell.Read(out);
        const uint64_t v = out[0];
        const bool ok =
            v == 0 ? (out[1] == 0 && out[2] == 0 && out[3] == 0)
                   : (out[1] == v * 3 && out[2] == ~v &&
                      out[3] == (v ^ 0x5a5a5a5a));
        if (!ok) ++torn[static_cast<size_t>(r)];
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(torn[static_cast<size_t>(r)], 0) << "reader " << r;
  }
}

// ---- Typed records ----------------------------------------------------------

// Distinct, non-default values per field: a record copied into the wrong
// words, truncated, or decoded as another kind reads a different value.
constexpr uint64_t Distinct(uint64_t field) {
  return (field << 40) | (0xA5 << 8) | field;
}

TEST(MetricsRegistry, JoinerRecordRoundTripsFieldForField) {
  MetricsRegistry registry;
  registry.Register(3, TaskKind::kReshuffler);  // neighbours of another kind
  TaskTelemetry* cell = registry.Register(4, TaskKind::kJoiner);
  registry.Register(5, TaskKind::kAgg);
  JoinerMetrics m;
  m.in_tuples = Distinct(1);
  m.in_bytes = Distinct(2);
  m.probe_candidates = Distinct(3);
  m.output_tuples = Distinct(4);
  m.mig_out_tuples = Distinct(5);
  m.mig_out_bytes = Distinct(6);
  m.mig_in_tuples = Distinct(7);
  m.mig_in_bytes = Distinct(8);
  m.discarded_tuples = Distinct(9);
  m.migrations_finalized = Distinct(10);
  m.shed_probes_skipped = Distinct(11);
  m.stored_tuples = Distinct(12);
  m.stored_bytes = Distinct(13);
  m.peak_stored_bytes = Distinct(14);
  cell->PublishJoiner(m, /*epoch=*/0xE90C15u, /*migrating=*/true,
                      /*active=*/true, /*shed_rate_ppm=*/123457u);
  const std::vector<TaskSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  ASSERT_EQ(snap[1].task, 4);
  ASSERT_EQ(snap[1].kind, TaskKind::kJoiner);
  const JoinerSnapshot& j = snap[1].joiner;
  EXPECT_EQ(j.in_tuples, Distinct(1));
  EXPECT_EQ(j.in_bytes, Distinct(2));
  EXPECT_EQ(j.probe_candidates, Distinct(3));
  EXPECT_EQ(j.output_tuples, Distinct(4));
  EXPECT_EQ(j.mig_out_tuples, Distinct(5));
  EXPECT_EQ(j.mig_out_bytes, Distinct(6));
  EXPECT_EQ(j.mig_in_tuples, Distinct(7));
  EXPECT_EQ(j.mig_in_bytes, Distinct(8));
  EXPECT_EQ(j.discarded_tuples, Distinct(9));
  EXPECT_EQ(j.migrations_finalized, Distinct(10));
  EXPECT_EQ(j.shed_probes_skipped, Distinct(11));
  EXPECT_EQ(j.stored_tuples, Distinct(12));
  EXPECT_EQ(j.stored_bytes, Distinct(13));
  EXPECT_EQ(j.peak_stored_bytes, Distinct(14));
  EXPECT_EQ(j.shed_rate_ppm, 123457u);
  EXPECT_EQ(j.epoch, 0xE90C15u);
  EXPECT_TRUE(j.migrating);
  EXPECT_TRUE(j.active);
}

TEST(MetricsRegistry, ReshufflerRecordRoundTripsFieldForField) {
  MetricsRegistry registry;
  registry.Register(0, TaskKind::kJoiner);
  TaskTelemetry* cell = registry.Register(1, TaskKind::kReshuffler);
  ReshufflerMetrics m;
  m.routed_tuples = Distinct(1);
  m.sent_msgs = Distinct(2);
  m.sent_bytes = Distinct(3);
  m.epoch_changes = Distinct(4);
  m.results_restamped = Distinct(5);
  cell->Publish(m);
  const std::vector<TaskSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  ASSERT_EQ(snap[1].task, 1);
  ASSERT_EQ(snap[1].kind, TaskKind::kReshuffler);
  const ReshufflerMetrics& r = snap[1].reshuffler;
  EXPECT_EQ(r.routed_tuples, Distinct(1));
  EXPECT_EQ(r.sent_msgs, Distinct(2));
  EXPECT_EQ(r.sent_bytes, Distinct(3));
  EXPECT_EQ(r.epoch_changes, Distinct(4));
  EXPECT_EQ(r.results_restamped, Distinct(5));
}

TEST(MetricsRegistry, AggRecordRoundTripsFieldForField) {
  MetricsRegistry registry;
  registry.Register(0, TaskKind::kJoiner);
  TaskTelemetry* cell = registry.Register(1, TaskKind::kAgg);
  AggSnapshot a;
  a.in_tuples = Distinct(1);
  a.in_bytes = Distinct(2);
  a.groups = Distinct(3);
  a.table_bytes = Distinct(4);
  a.mig_out_cells = Distinct(5);
  a.mig_in_cells = Distinct(6);
  a.migrations_finalized = Distinct(7);
  a.emitted_results = Distinct(8);
  a.epoch = 0xA6613u;
  a.migrating = true;
  a.flushed = true;
  cell->Publish(a);
  const std::vector<TaskSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  ASSERT_EQ(snap[1].task, 1);
  ASSERT_EQ(snap[1].kind, TaskKind::kAgg);
  const AggSnapshot& g = snap[1].agg;
  EXPECT_EQ(g.in_tuples, Distinct(1));
  EXPECT_EQ(g.in_bytes, Distinct(2));
  EXPECT_EQ(g.groups, Distinct(3));
  EXPECT_EQ(g.table_bytes, Distinct(4));
  EXPECT_EQ(g.mig_out_cells, Distinct(5));
  EXPECT_EQ(g.mig_in_cells, Distinct(6));
  EXPECT_EQ(g.migrations_finalized, Distinct(7));
  EXPECT_EQ(g.emitted_results, Distinct(8));
  EXPECT_EQ(g.epoch, 0xA6613u);
  EXPECT_TRUE(g.migrating);
  EXPECT_TRUE(g.flushed);
}

TEST(MetricsRegistry, UnpublishedJoinerCellReadsExactAndInactive) {
  // Registration alone, no publish: the cell holds the record's defaults,
  // so a sampler sees exact probing on a tombstoned slot, not rate 0.
  MetricsRegistry registry;
  registry.Register(0, TaskKind::kJoiner);
  const std::vector<TaskSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const JoinerSnapshot& j = snap[0].joiner;
  EXPECT_EQ(j.shed_rate_ppm, static_cast<uint32_t>(kShedExactPpm));
  EXPECT_FALSE(j.active);
  EXPECT_FALSE(j.migrating);
  EXPECT_EQ(j.epoch, 0u);
  EXPECT_EQ(j.in_tuples, 0u);
  EXPECT_EQ(j.stored_tuples, 0u);
}

// ---- Trace ring -------------------------------------------------------------

TEST(MetricsTraceRing, MultiProducerNoLostOrTornEvents) {
  // Capacity exceeds the total, so every event must survive, exactly once,
  // with payload words that belong together.
  TraceRing ring(1 << 12);
  const int kThreads = 4;
  const uint64_t kPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Record(TraceEventKind::kEpochChange, t, i,
                    (static_cast<uint64_t>(t) << 16) | i, 42);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ring.total_recorded(), kThreads * kPerThread);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    EXPECT_EQ(ev.index, i);  // sorted by claim order, no gaps
    EXPECT_EQ(ev.a >> 16, static_cast<uint64_t>(ev.task));
    EXPECT_EQ(ev.a & 0xffff, ev.t_us);
    EXPECT_EQ(ev.b, 42u);
  }
}

TEST(MetricsTraceRing, WrapKeepsMostRecentEvents) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Record(TraceEventKind::kMigrationBegin, 1, i, i, 0);
  }
  EXPECT_EQ(ring.total_recorded(), 100u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_LE(events.size(), 8u);
  ASSERT_FALSE(events.empty());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].index, 92u);  // only the newest survive a wrap
    EXPECT_EQ(events[i].a, events[i].t_us);
    if (i > 0) {
      EXPECT_GT(events[i].index, events[i - 1].index);
    }
  }
}

// ---- Control-loop series + export -------------------------------------------

TEST(TelemetrySampler, SeriesRingAndJsonExport) {
  MetricsRegistry registry;
  TaskTelemetry* cell = registry.Register(0, TaskKind::kJoiner);
  JoinerMetrics m;
  m.in_tuples = 7;
  m.output_tuples = 3;
  m.stored_tuples = 4;
  cell->PublishJoiner(m, /*epoch=*/2, /*migrating=*/false, /*active=*/true);

  ControlLoop::Options opts;
  opts.period_us = 1000;
  opts.capacity = 4;
  ControlLoop loop(&registry, opts);
  for (uint64_t t = 0; t < 10; ++t) loop.TickNow(t * 1000);
  EXPECT_EQ(loop.samples_taken(), 10u);
  std::vector<TelemetrySample> series = loop.series();
  ASSERT_EQ(series.size(), 4u);  // ring dropped the six oldest
  EXPECT_EQ(series.front().t_us, 6000u);
  EXPECT_EQ(series.back().t_us, 9000u);
  ASSERT_EQ(series.back().tasks.size(), 1u);
  EXPECT_EQ(series.back().tasks[0].joiner.in_tuples, 7u);
  EXPECT_EQ(series.back().tasks[0].joiner.epoch, 2u);

  const std::string line = ControlLoop::SummaryLine(series.back());
  EXPECT_NE(line.find("1J+0R"), std::string::npos) << line;
  EXPECT_NE(line.find("in=7"), std::string::npos) << line;

  const char* path = "telemetry_test_export.json";
  ASSERT_TRUE(loop.WriteJson(path, "unit"));
  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  std::string blob(1 << 16, '\0');
  blob.resize(std::fread(&blob[0], 1, blob.size(), f));
  std::fclose(f);
  std::remove(path);
  EXPECT_NE(blob.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(blob.find("\"in_tuples\": 7"), std::string::npos);
  EXPECT_NE(blob.find("\"samples\""), std::string::npos);
  EXPECT_NE(blob.find("\"decisions\": [\n  ]"), std::string::npos);
  EXPECT_NE(blob.find("\"trace\""), std::string::npos);
}

// ---- Sim engine: drain-interval sampling ------------------------------------

TEST(TelemetrySim, DrainIntervalSamplerMatchesQuiescentHarvest) {
  Workload w = Workload::Synthetic(/*r_count=*/6000, /*s_count=*/6000, 32, 32,
                                   /*key_domain=*/3000, /*zipf=*/0.0,
                                   /*seed=*/11);
  SimEngine engine;
  MetricsRegistry registry;
  OperatorConfig config;
  config.spec = w.spec();
  config.machines = 8;
  config.adaptive = true;
  config.keep_rows = false;
  config.min_total_before_adapt = w.total_count() / 100;
  config.registry = &registry;
  JoinOperator op(engine, config);
  engine.Start();

  ControlLoop loop(&registry);
  RunOptions opts;
  opts.snapshots = 10;
  opts.control = &loop;
  RunResult r = RunWorkload(engine, op, w, opts);

  std::vector<TelemetrySample> series = loop.series();
  ASSERT_GE(series.size(), 10u);

  // Cumulative counters only grow across drain-interval samples.
  std::unordered_map<int, JoinerSnapshot> prev;
  for (const TelemetrySample& sample : series) {
    for (const TaskSnapshot& task : sample.tasks) {
      if (task.kind != TaskKind::kJoiner) continue;
      auto it = prev.find(task.task);
      if (it != prev.end()) {
        EXPECT_GE(task.joiner.in_tuples, it->second.in_tuples);
        EXPECT_GE(task.joiner.output_tuples, it->second.output_tuples);
        EXPECT_GE(task.joiner.migrations_finalized,
                  it->second.migrations_finalized);
      }
      prev[task.task] = task.joiner;
    }
  }

  // The final sample (taken at quiescence) equals the quiescent harvest.
  uint64_t snap_in = 0, snap_out = 0, snap_stored = 0;
  for (const TaskSnapshot& task : series.back().tasks) {
    if (task.kind != TaskKind::kJoiner) continue;
    snap_in += task.joiner.in_tuples;
    snap_out += task.joiner.output_tuples;
    snap_stored += task.joiner.stored_tuples;
  }
  uint64_t quiet_in = 0, quiet_out = 0, quiet_stored = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    const JoinerMetrics& m = op.joiner(i).metrics();
    quiet_in += m.in_tuples;
    quiet_out += m.output_tuples;
    quiet_stored += m.stored_tuples;
  }
  EXPECT_EQ(snap_in, quiet_in);
  EXPECT_EQ(snap_out, quiet_out);
  EXPECT_EQ(snap_stored, quiet_stored);
  EXPECT_EQ(snap_out, r.outputs);
}

// ---- Dataflow wiring --------------------------------------------------------

TEST(TelemetrySim, DataflowStagesRegisterTasks) {
  // SetTelemetry stamps the registry/trace into every join stage added
  // after the call, so a whole cascade is observable through one registry.
  SimEngine engine;
  MetricsRegistry registry;
  TraceRing trace(64);
  Dataflow flow(engine);
  flow.SetTelemetry(&registry, &trace);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.keep_rows = false;
  const int a = flow.AddJoin(cfg);
  const int b = flow.AddJoin(cfg);
  const int out = flow.AddSink();
  flow.Connect(a, b, Dataflow::ConnectOptions());
  flow.Connect(b, out);
  // Two stages x (reshufflers + joiners) all registered.
  EXPECT_GE(registry.size(), 2 * 4u);
  engine.Start();
  StreamTuple t;
  t.rel = Rel::kR;
  t.key = 1;
  t.bytes = 16;
  flow.join(a).Push(t);
  t.rel = Rel::kS;
  flow.join(b).Push(t);
  flow.SendEos();
  engine.WaitQuiescent();
  uint64_t in_sum = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind == TaskKind::kJoiner) in_sum += task.joiner.in_tuples;
  }
  EXPECT_GT(in_sum, 0u);  // the stages published through the shared registry
}

// ---- Threaded engine: backpressure telemetry --------------------------------

class SlowSink : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)ctx;
    seen_ += 1 + msg.seq * 0;  // touch payload
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

 private:
  uint64_t seen_ = 0;
};

TEST(TelemetryThread, CreditStallCountersAndTrace) {
  // Tiny credit window + a consumer that sleeps per message: the producer
  // must hit the credit wall, and every layer must see it — the port's
  // rolled-up stats, the plane rollup, the per-edge counters, and the trace
  // ring's stall episodes.
  TraceRing trace(1024);
  ExchangeConfig xc;
  xc.batch_size = 1;  // every envelope ships alone: fills the ring fastest
  xc.ring_slots = 2;
  xc.trace = &trace;
  ThreadEngine engine(xc);
  engine.AddTask(std::make_unique<SlowSink>());
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  Envelope env;
  env.type = MsgType::kInput;
  for (uint64_t i = 0; i < 256; ++i) {
    env.seq = i;
    port->Post(0, Envelope(env));
  }
  port->Flush();
  engine.WaitQuiescent();

  IngressPortStats ps = port->stats();
  EXPECT_EQ(ps.posted_envelopes, 256u);
  EXPECT_EQ(ps.rejected_posts, 0u);
  EXPECT_GT(ps.credit_waits, 0u);
  EXPECT_GT(ps.credit_wait_ns, 0u);
  EXPECT_EQ(ps.backlog, 0u);  // quiescent: nothing buffered in the port

  ExchangeStatsSnapshot xs = engine.exchange_stats();
  EXPECT_GT(xs.credit_waits, 0u);
  EXPECT_GT(xs.credit_wait_ns, 0u);

  bool found_stalled_edge = false;
  for (const EdgeStatsSnapshot& edge : engine.edge_stats()) {
    if (edge.credit_waits == 0) continue;
    found_stalled_edge = true;
    EXPECT_EQ(edge.consumer, 0);
    EXPECT_TRUE(edge.bounded);
    EXPECT_GT(edge.credit_wait_ns, 0u);
    EXPECT_EQ(edge.ring_capacity, 2u);
    EXPECT_GE(edge.ring_peak, 1u);
    EXPECT_EQ(edge.ring_occupancy, 0u);  // drained at quiescence
  }
  EXPECT_TRUE(found_stalled_edge);

  uint64_t stall_events = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind != TraceEventKind::kCreditStall) continue;
    ++stall_events;
    EXPECT_EQ(ev.task, 0);   // stalled on the slow consumer's edge
    EXPECT_GT(ev.a, 0u);     // stall duration in ns
  }
  EXPECT_GT(stall_events, 0u);
  engine.Shutdown();
}

TEST(TelemetryThread, EdgeEnvelopeAccountingMatchesPlane) {
  // At quiescence the per-edge counters must tile the plane rollup exactly,
  // and every gauge must read empty.
  ExchangeConfig xc;
  xc.batch_size = 16;
  ThreadEngine engine(xc);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.keep_rows = false;
  JoinOperator op(engine, cfg);
  engine.Start();
  auto stream = MakeStream(2000, 2000, 50, 17);
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();

  ExchangeStatsSnapshot xs = engine.exchange_stats();
  uint64_t edge_envelopes = 0, edge_batches = 0;
  for (const EdgeStatsSnapshot& edge : engine.edge_stats()) {
    edge_envelopes += edge.envelopes;
    edge_batches += edge.batches;
    EXPECT_EQ(edge.ring_occupancy, 0u);
    EXPECT_EQ(edge.overflow_depth, 0u);
  }
  EXPECT_EQ(edge_envelopes, xs.envelopes);
  EXPECT_EQ(edge_batches, xs.batches);
  EXPECT_GT(edge_envelopes, 0u);
  engine.Shutdown();
}

// ---- Threaded engine: continuous snapshots during live migrations -----------

TEST(TelemetryThread, ContinuousSnapshotsDuringMigrations) {
  // The TSan stress case: tiny batches + a 2-slot credit window so size
  // flushes, deadline flushes, and credit stalls interleave with live
  // migrations, while (a) a dedicated thread hammers registry snapshots,
  // edge stats, and trace reads, and (b) the control-loop thread samples
  // on its own cadence. Per-task cumulative counters must be monotone across
  // snapshots, and the final snapshot must equal the quiescent harvest.
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(1500, 4500, 24, 91);
  TraceRing trace(1 << 14);
  ExchangeConfig xc;
  xc.batch_size = 5;
  xc.ring_slots = 2;
  xc.flush_deadline_us = 50;
  xc.trace = &trace;
  ThreadEngine engine(xc);
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 16;
  cfg.registry = &registry;
  cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  ControlLoop::Options lo;
  lo.period_us = 500;
  ControlLoop loop(&registry, lo);
  loop.SetEdgeSource([&engine] { return engine.edge_stats(); });
  loop.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  loop.SetTraceSource(&trace);
  loop.Start();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  int non_monotonic = 0;  // snapshot-thread local until the join below
  std::thread snapshotter([&] {
    std::unordered_map<int, JoinerSnapshot> prev;
    while (!done.load(std::memory_order_acquire)) {
      for (const TaskSnapshot& task : registry.Snapshot()) {
        if (task.kind != TaskKind::kJoiner) continue;
        auto it = prev.find(task.task);
        if (it != prev.end() &&
            (task.joiner.in_tuples < it->second.in_tuples ||
             task.joiner.output_tuples < it->second.output_tuples ||
             task.joiner.migrations_finalized <
                 it->second.migrations_finalized)) {
          ++non_monotonic;
        }
        prev[task.task] = task.joiner;
      }
      (void)engine.edge_stats();
      (void)trace.Snapshot();
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  done.store(true, std::memory_order_release);
  snapshotter.join();
  loop.Stop();

  EXPECT_EQ(non_monotonic, 0);
  EXPECT_GE(snapshots_taken.load(), 1u);
  EXPECT_GE(loop.samples_taken(), 2u);

  // Final snapshot == quiescent harvest (every publish epilogue ran).
  uint64_t snap_in = 0, snap_out = 0, snap_stored = 0, snap_migs = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner) continue;
    snap_in += task.joiner.in_tuples;
    snap_out += task.joiner.output_tuples;
    snap_stored += task.joiner.stored_tuples;
    snap_migs += task.joiner.migrations_finalized;
  }
  uint64_t quiet_in = 0, quiet_out = 0, quiet_stored = 0, quiet_migs = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    const JoinerMetrics& m = op.joiner(i).metrics();
    quiet_in += m.in_tuples;
    quiet_out += m.output_tuples;
    quiet_stored += m.stored_tuples;
    quiet_migs += m.migrations_finalized;
  }
  EXPECT_EQ(snap_in, quiet_in);
  EXPECT_EQ(snap_out, quiet_out);
  EXPECT_EQ(snap_stored, quiet_stored);
  EXPECT_EQ(snap_migs, quiet_migs);

  ASSERT_NE(op.controller(), nullptr);
  const uint64_t migrations = op.controller()->log().size();
  EXPECT_GE(migrations, 1u);
  EXPECT_GE(snap_migs, 1u);

  // The trace ring saw the migration protocol run.
  bool saw_begin = false, saw_finalize = false;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == TraceEventKind::kMigrationBegin) saw_begin = true;
    if (ev.kind == TraceEventKind::kMigrationFinalize) saw_finalize = true;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_finalize);
  engine.Shutdown();
}

}  // namespace
}  // namespace ajoin
