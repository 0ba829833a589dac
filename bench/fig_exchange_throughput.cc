// Exchange-plane throughput: per-tuple (batch_size 1 — the reference
// configuration since the mutex Channel plane's retirement) vs. batched
// (src/exchange/) shipping, across batch sizes and thread counts. Every mode
// dispatches through Task::OnBatch; at batch_size 1 each batch holds one
// envelope.
//
// Three sections:
//  1. raw fan-out — an external producer round-robins envelopes over N sink
//     tasks; isolates pure exchange cost (no join work). Batched exchange
//     must move >= 3x the tuples/sec of per-tuple exchange here.
//  2. ingress scaling — the `ingress` axis: N concurrent producer threads,
//     one IngressPort each, drive the same fan-out with per-envelope Post
//     (`port`) or with size-targeted PostBatch runs (`port-batch`).
//  3. 4-joiner join run — a static (n,m)-mapped equi-join on ThreadEngine.
//     End-to-end tuples/sec is reported as-is, but on a small host the run
//     is compute-bound (probe/store/index work), so the exchange comparison
//     is also reported as *exchange overhead per tuple*: wall time per tuple
//     beyond the zero-synchronization compute ceiling, which the bench
//     measures by running the identical operator + stream on the
//     deterministic SimEngine. Batched (batch >= 64) must cut that overhead
//     by >= 3x vs per-tuple exchange.
//
// A fourth axis prices the live telemetry plane at the 4J operating point
// from alternating off/on pairs of single-rep runs.
//
// Each acceptance line prints OK or BELOW against its target (the paired
// telemetry line prints UNRESOLVED when the target falls between its
// median and upper quartile), and the targets are written into the JSON
// meta as required_*; the exit code does not depend on them.
//
// Emits BENCH_exchange_throughput.json via the shared JSON writer.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/trace_ring.h"
#include "src/core/control_loop.h"
#include "src/core/operator.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

using namespace ajoin;
using bench::JsonResult;
using bench::JsonRow;

namespace {

struct Mode {
  const char* name;
  uint32_t batch_size;
};

std::unique_ptr<ThreadEngine> MakeEngine(const Mode& mode,
                                         TraceRing* trace = nullptr) {
  ExchangeConfig config;
  config.batch_size = mode.batch_size;
  config.trace = trace;
  return std::make_unique<ThreadEngine>(config);
}

class SinkTask : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)ctx;
    count_ += msg.seq;  // touch the payload so nothing is optimized away
  }

 private:
  uint64_t count_ = 0;
};

/// Section 1: raw exchange fan-out, no operator logic; the modes sweep
/// batch size.
const Mode kRawModes[] = {
    {"batched-1", 1},   {"batched-16", 16},
    {"batched-64", 64}, {"batched-256", 256},
};

double RawFanout(const Mode& mode, int sinks, uint64_t envelopes) {
  std::unique_ptr<ThreadEngine> engine = MakeEngine(mode);
  for (int i = 0; i < sinks; ++i) {
    engine->AddTask(std::make_unique<SinkTask>());
  }
  engine->Start();
  std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
  Stopwatch clock;
  Envelope env;
  env.type = MsgType::kInput;
  for (uint64_t i = 0; i < envelopes; ++i) {
    env.seq = i;
    port->Post(static_cast<int>(i % static_cast<uint64_t>(sinks)),
               Envelope(env));
  }
  port->Flush();
  engine->WaitQuiescent();
  double secs = clock.ElapsedSeconds();
  engine->Shutdown();
  return static_cast<double>(envelopes) / secs;
}

/// Section 2 ingress modes, one IngressPort (dedicated SPSC lanes) per
/// producer thread:
///  - kPortPost: per-envelope Post.
///  - kPortBatch: size-targeted PostBatch runs, which amortize the port
///    lock, in-flight accounting, and edge work over the run.
enum class IngressMode { kPortPost, kPortBatch };

const char* IngressName(IngressMode mode) {
  switch (mode) {
    case IngressMode::kPortPost: return "port";
    case IngressMode::kPortBatch: return "port-batch";
  }
  return "?";
}

/// Section 2: multi-producer ingress. `producers` threads split `envelopes`
/// round-robin over the sinks. Identical exchange config everywhere — the
/// only variable is how tuples enter the engine.
double IngressScaling(IngressMode mode, int producers, int sinks,
                      uint64_t envelopes) {
  ExchangeConfig config;
  config.max_ingress_ports = static_cast<uint32_t>(producers);
  ThreadEngine engine(config);
  for (int i = 0; i < sinks; ++i) {
    engine.AddTask(std::make_unique<SinkTask>());
  }
  engine.Start();
  const uint64_t per_producer = envelopes / static_cast<uint64_t>(producers);
  Stopwatch clock;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &config, mode, sinks, per_producer, p] {
      Envelope env;
      env.type = MsgType::kInput;
      const uint64_t base = static_cast<uint64_t>(p) * per_producer;
      std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
      if (mode == IngressMode::kPortPost) {
        for (uint64_t i = 0; i < per_producer; ++i) {
          env.seq = base + i;
          port->Post(static_cast<int>(i % static_cast<uint64_t>(sinks)),
                     Envelope(env));
        }
      } else {
        // Size-targeted runs per sink, matching the wire batch size.
        std::vector<TupleBatch> staged(static_cast<size_t>(sinks));
        for (uint64_t i = 0; i < per_producer; ++i) {
          env.seq = base + i;
          const size_t sink = i % static_cast<uint64_t>(sinks);
          TupleBatch& run = staged[sink];
          run.Add(Envelope(env));
          if (run.size() >= config.batch_size) {
            port->PostBatch(static_cast<int>(sink), std::move(run));
            run.Clear();
          }
        }
        for (size_t sink = 0; sink < staged.size(); ++sink) {
          if (staged[sink].empty()) continue;
          port->PostBatch(static_cast<int>(sink), std::move(staged[sink]));
        }
      }
      port->Flush();
    });
  }
  for (std::thread& t : threads) t.join();
  engine.WaitQuiescent();
  double secs = clock.ElapsedSeconds();
  engine.Shutdown();
  return static_cast<double>(per_producer) *
         static_cast<double>(producers) / secs;
}

std::vector<StreamTuple> MakeJoinStream(uint64_t n, uint64_t seed) {
  // Wide key domain: almost no matches, so wall-clock is dominated by the
  // data plane (routing, shipping, storing), not result emission.
  std::vector<StreamTuple> stream;
  stream.reserve(n);
  Rng rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    StreamTuple t;
    t.rel = rng.NextBool(0.5) ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(1u << 30));
    t.bytes = 16;
    stream.push_back(t);
  }
  return stream;
}

struct JoinRunResult {
  double tuples_per_sec = 0;
  ExchangeStatsSnapshot stats;
  // Per-edge counters of the best rep, captured before Shutdown.
  std::vector<EdgeStatsSnapshot> edges;
};

OperatorConfig StaticJoinConfig(uint32_t machines) {
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = machines;
  cfg.adaptive = false;  // static mapping: isolate the exchange layer
  cfg.initial = MidMapping(machines);
  cfg.use_initial = true;
  cfg.keep_rows = false;
  return cfg;
}

/// Section 3 modes: the per-tuple reference (batch_size 1) plus batch sizes
/// 16/64/256.
const Mode kJoinModes[] = {
    {"batched-1", 1},
    {"b16/batch", 16},
    {"b64/batch", 64},
    {"b256/batch", 256},
};

/// Section 3: end-to-end static join run on the threaded engine. Best of
/// `reps` to damp scheduler noise; the 4J point carries the overhead metric
/// and gets extra reps. With `egress_sink`, every joiner streams its
/// results to one ResultSink task as kResult batches (the `sink` value of
/// the egress axis) instead of only counting locally (`poll`).
JoinRunResult JoinRun(const Mode& mode, uint32_t machines,
                      const std::vector<StreamTuple>& stream, int reps = 3,
                      bool egress_sink = false, bool telemetry = false) {
  JoinRunResult result;
  for (int rep = 0; rep < reps; ++rep) {
    // Telemetry axis state: registry + trace wired into the operator and
    // plane, a ControlLoop sampling on its own thread at the default
    // period — the whole live-observability plane running during the
    // measured window.
    TraceRing trace(4096);
    MetricsRegistry registry;
    std::unique_ptr<ThreadEngine> engine =
        MakeEngine(mode, telemetry ? &trace : nullptr);
    OperatorConfig cfg = StaticJoinConfig(machines);
    if (telemetry) {
      cfg.registry = &registry;
      cfg.trace = &trace;
    }
    JoinOperator op(*engine, cfg);
    if (egress_sink) {
      ResultSink::Options opts;
      opts.collect_pairs = false;  // count + bytes only: pure egress cost
      const int sink_task =
          engine->AddTask(std::make_unique<ResultSink>(opts));
      op.RouteResultsTo({sink_task});
    }
    engine->Start();
    ControlLoop loop(&registry);
    if (telemetry) {
      ThreadEngine* raw = engine.get();
      loop.SetEdgeSource([raw] { return raw->edge_stats(); });
      loop.SetExchangeSource([raw] { return raw->exchange_stats(); });
      loop.SetTraceSource(&trace);
      loop.Start();
    }
    Stopwatch clock;
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine->WaitQuiescent();
    double secs = clock.ElapsedSeconds();
    if (telemetry) loop.Stop();
    double rate = static_cast<double>(stream.size()) / secs;
    if (rate > result.tuples_per_sec) {
      result.tuples_per_sec = rate;
      result.stats = engine->exchange_stats();
      result.edges = engine->edge_stats();
    }
    engine->Shutdown();
  }
  return result;
}

/// Zero-synchronization compute ceiling: the identical operator + stream on
/// the deterministic single-threaded SimEngine (no threads, no channels —
/// just the join work plus a deque dispatch). Tuples are posted one at a
/// time, and every send unit goes through the same OnBatch paths as the
/// threaded modes, as a one-envelope batch or a routed run.
double SimCeiling(uint32_t machines, const std::vector<StreamTuple>& stream,
                  int reps = 3) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    SimEngine engine;
    JoinOperator op(engine, StaticJoinConfig(machines));
    engine.Start();
    Stopwatch clock;
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine.WaitQuiescent();
    best = std::max(best,
                    static_cast<double>(stream.size()) / clock.ElapsedSeconds());
  }
  return best;
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles of `values` by the "exclusive" rule of Python's
/// statistics.quantiles (the rule bench/e2e/compare.py uses).
Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  const size_t n = values.size();
  if (n == 0) return q;
  std::sort(values.begin(), values.end());
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  double* out[3] = {&q.q1, &q.median, &q.q3};
  for (size_t i = 1; i <= 3; ++i) {
    const size_t m = i * (n + 1);
    const size_t j = std::min(std::max<size_t>(m / 4, 1), n - 1);
    const double delta = static_cast<double>(m) - 4.0 * j;
    *out[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return q;
}

/// Verdict on a paired ratio with a lower bound: "OK" when the median meets
/// it, "BELOW" when even the upper quartile misses it, "UNRESOLVED" when
/// the bound falls inside the spread.
const char* PairedVerdict(const Quartiles& q, double required) {
  if (q.median >= required) return "OK";
  if (q.q3 < required) return "BELOW";
  return "UNRESOLVED";
}

}  // namespace

int main() {
  const int kTelemetryPairs = 20;
  const double kRequiredRawSpeedup = 3.0;
  const double kRequiredOverheadReduction = 3.0;
  const double kRequiredTelemetryRatio = 0.98;
  JsonResult out("exchange_throughput");
  out.meta()
      .Add("unit", "tuples_per_sec")
      .Add("measure", "wall_clock_best_of_n")
      .Add("reps", "5 on 4J join runs, 2 on 2J/8J, 3 on raw fan-out; "
                   "telemetry axis: single-rep off/on pairs, alternating "
                   "order, median and quartiles of the pair ratios")
      .Add("note", "per-tuple reference = batched-1 (batch_size 1; the "
                   "mutex Channel plane is retired); bN = src/exchange "
                   "plane with batch_size N; every mode hands each consumed "
                   "batch to OnBatch; overhead_ns = per-tuple wall time beyond "
                   "the SimEngine compute ceiling; ingress port = one "
                   "IngressPort (dedicated SPSC lanes) per producer posting "
                   "per envelope, port-batch = one IngressPort per producer "
                   "shipping size-targeted PostBatch runs; egress poll = results "
                   "counted locally and read at quiescence, sink = joiners "
                   "stream kResult batches to a ResultSink task (the "
                   "join_4j_egress section runs a match-producing stream, "
                   "~1 result/tuple)")
      .Add("required_raw_speedup_batched_vs_per_tuple", kRequiredRawSpeedup)
      .Add("required_join4j_overhead_reduction_batched_vs_per_tuple",
           kRequiredOverheadReduction)
      .Add("required_join4j_telemetry_overhead_ratio",
           kRequiredTelemetryRatio);

  // ---- Section 1: pure exchange -------------------------------------------
  bench::PrintHeader("Exchange throughput 1/3: raw fan-out, 4 sinks");
  const uint64_t kRawEnvelopes = 200000;
  double raw_per_tuple = 0, raw_best_batched = 0;
  std::printf("%-12s %14s\n", "mode", "envelopes/s");
  for (const Mode& mode : kRawModes) {
    double rate = 0;
    for (int rep = 0; rep < 3; ++rep) {
      rate = std::max(rate, RawFanout(mode, /*sinks=*/4, kRawEnvelopes));
    }
    if (mode.batch_size == 1) raw_per_tuple = rate;
    if (mode.batch_size >= 64) {
      raw_best_batched = std::max(raw_best_batched, rate);
    }
    std::printf("%-12s %14.0f\n", mode.name, rate);
    out.AddRow()
        .Add("section", "raw_fanout")
        .Add("mode", mode.name)
        .Add("batch_size", static_cast<int>(mode.batch_size))
        .Add("threads", 4)
        .Add("envelopes", kRawEnvelopes)
        .Add("tuples_per_sec", rate);
  }

  // ---- Section 2: multi-producer ingress ----------------------------------
  bench::PrintHeader(
      "Exchange throughput 2/3: ingress scaling, 4 sinks "
      "(ingress=port|port-batch)");
  const uint64_t kIngressEnvelopes = 200000;
  const int kProducerCounts[] = {1, 2, 4};
  const IngressMode kIngressModes[] = {IngressMode::kPortPost,
                                       IngressMode::kPortBatch};
  std::printf("%-10s %14s %14s\n", "producers", "port (env/s)",
              "pbatch (env/s)");
  for (int producers : kProducerCounts) {
    double rate[2] = {0, 0};
    for (int rep = 0; rep < 3; ++rep) {
      for (int m = 0; m < 2; ++m) {
        rate[m] = std::max(rate[m], IngressScaling(kIngressModes[m], producers,
                                                   /*sinks=*/4,
                                                   kIngressEnvelopes));
      }
    }
    std::printf("%-10d %14.0f %14.0f\n", producers, rate[0], rate[1]);
    for (int m = 0; m < 2; ++m) {
      out.AddRow()
          .Add("section", "ingress_scaling")
          .Add("ingress", IngressName(kIngressModes[m]))
          .Add("producers", producers)
          .Add("threads", 4)
          .Add("envelopes", kIngressEnvelopes)
          .Add("tuples_per_sec", rate[m]);
    }
  }

  // ---- Section 3: 4-joiner join run ---------------------------------------
  bench::PrintHeader(
      "Exchange throughput 3/3: static equi-join run (tuples/s)");
  const uint64_t kJoinTuples = 240000;
  auto stream = MakeJoinStream(kJoinTuples, 4242);
  const uint32_t kMachineCounts[] = {2, 4, 8};

  // Warm-up, discarded: the first runs in the process pay allocator and
  // cache warm-up, and the ceiling is measured first — without this it
  // under-reads and later (warm) threaded runs "beat" it, clamping the
  // overhead metric to zero.
  (void)SimCeiling(4, stream, /*reps=*/1);
  (void)JoinRun(kJoinModes[0], 4, stream, /*reps=*/1);
  const double ceiling_4j = SimCeiling(4, stream, /*reps=*/5);
  const double ceiling_ns = 1e9 / ceiling_4j;
  std::printf("compute ceiling (SimEngine, 4J): %.0f tuples/s "
              "(%.0f ns/tuple)\n\n", ceiling_4j, ceiling_ns);
  out.AddRow()
      .Add("section", "join_4j_static")
      .Add("mode", "sim-ceiling")
      .Add("machines", 4)
      .Add("tuples", kJoinTuples)
      .Add("tuples_per_sec", ceiling_4j);

  std::printf("%-12s", "mode");
  for (uint32_t m : kMachineCounts) std::printf(" %9uJ", m);
  std::printf("   xchg overhead ns/tuple (4J)\n");
  double batched1_4j = 0;
  double best_batched_4j = 0;
  // Best (lowest) 4J overhead across modes with batch_size >= 64.
  double overhead_batch_ns = -1;
  for (const Mode& mode : kJoinModes) {
    std::printf("%-12s", mode.name);
    double overhead_4j = 0;
    for (uint32_t machines : kMachineCounts) {
      JoinRunResult r = JoinRun(mode, machines, stream,
                                /*reps=*/machines == 4 ? 5 : 2);
      std::printf(" %10.0f", r.tuples_per_sec);
      // Clamped at 0: on multi-core hosts the parallel run can beat the
      // single-threaded sim ceiling, i.e. no measurable exchange overhead.
      double overhead_ns =
          machines == 4
              ? std::max(0.0, 1e9 / r.tuples_per_sec - ceiling_ns)
              : 0;
      if (machines == 4) {
        overhead_4j = overhead_ns;
        if (mode.batch_size == 1) batched1_4j = r.tuples_per_sec;
        if (mode.batch_size >= 64) {
          best_batched_4j = std::max(best_batched_4j, r.tuples_per_sec);
          if (overhead_batch_ns < 0 || overhead_ns < overhead_batch_ns) {
            overhead_batch_ns = overhead_ns;
          }
        }
      }
      JsonRow& row = out.AddRow();
      row.Add("section", "join_4j_static")
          .Add("mode", mode.name)
          .Add("index", "flat")
          .Add("batch_size", static_cast<int>(mode.batch_size))
          .Add("machines", static_cast<int>(machines))
          .Add("tuples", kJoinTuples)
          .Add("tuples_per_sec", r.tuples_per_sec)
          .Add("avg_batch_fill", r.stats.avg_batch_fill)
          .Add("credit_waits", r.stats.credit_waits)
          .Add("overflow_batches", r.stats.overflow_batches);
      if (machines == 4) row.Add("exchange_overhead_ns", overhead_ns);
    }
    std::printf("   %.0f\n", overhead_4j);
  }

  // Egress axis at the 4J operating point, on a *match-producing* stream
  // (the main 4J stream is nearly match-free, so it cannot price result
  // shipping): poll = results stay local (counted per joiner, read at
  // quiescence — the pre-egress consumption model), sink = every joiner
  // streams kResult batches to one ResultSink task while the stream runs.
  // The delta prices first-class streaming egress at ~1 result per input
  // tuple.
  auto egress_stream = MakeJoinStream(kJoinTuples, 777);
  for (StreamTuple& t : egress_stream) {
    t.key &= (1 << 16) - 1;  // ~one expected match per probe at 240k tuples
  }
  std::printf("\n%-12s %10s %10s %8s   (egress axis, 4J, matchy stream)\n",
              "mode", "poll t/s", "sink t/s", "ratio");
  double egress_ratio_b64 = 0;
  const char* kEgressModes[] = {"batched-1", "b64/batch", "b256/batch"};
  for (const char* mode_name : kEgressModes) {
    const Mode* found = nullptr;
    for (const Mode& m : kJoinModes) {
      if (std::string(m.name) == mode_name) found = &m;
    }
    // A silently skipped mode would write egress_sink_vs_poll_b64_batch as
    // 0 — reading as a catastrophic regression instead of a bench bug.
    AJOIN_CHECK_MSG(found != nullptr,
                    "egress axis references a mode missing from kJoinModes");
    const Mode& mode = *found;
    JoinRunResult poll = JoinRun(mode, 4, egress_stream, /*reps=*/3,
                                 /*egress_sink=*/false);
    JoinRunResult sink = JoinRun(mode, 4, egress_stream, /*reps=*/3,
                                 /*egress_sink=*/true);
    const double ratio = poll.tuples_per_sec > 0
                             ? sink.tuples_per_sec / poll.tuples_per_sec
                             : 0;
    if (std::string(mode_name) == "b64/batch") egress_ratio_b64 = ratio;
    std::printf("%-12s %10.0f %10.0f %7.2fx\n", mode.name,
                poll.tuples_per_sec, sink.tuples_per_sec, ratio);
    for (int e = 0; e < 2; ++e) {
      const JoinRunResult& r = e == 0 ? poll : sink;
      out.AddRow()
          .Add("section", "join_4j_egress")
          .Add("mode", mode.name)
          .Add("egress", e == 0 ? "poll" : "sink")
          .Add("batch_size", static_cast<int>(mode.batch_size))
          .Add("machines", 4)
          .Add("tuples", kJoinTuples)
          .Add("tuples_per_sec", r.tuples_per_sec)
          .Add("avg_batch_fill", r.stats.avg_batch_fill)
          .Add("credit_waits", r.stats.credit_waits)
          .Add("overflow_batches", r.stats.overflow_batches);
    }
  }

  // Telemetry axis at the 4J operating point: the b64/batch run with the
  // full observability plane live (per-task registry publishing, per-edge
  // counters, trace ring, control-loop thread at the default 10 ms period)
  // vs. telemetry off. Counter bumps are plain stores and snapshots are
  // seqlock reads, so the on/off ratio must stay within 2%. One ratio per
  // pair of back-to-back single-rep runs, alternating which side runs
  // first, so host drift slower than a pair cancels inside it and order
  // effects cancel across pairs; the verdict is judged on the spread of the
  // pair ratios, not on one ratio.
  const Mode* b64_batch = nullptr;
  for (const Mode& m : kJoinModes) {
    if (std::string(m.name) == "b64/batch") b64_batch = &m;
  }
  AJOIN_CHECK_MSG(b64_batch != nullptr, "b64/batch missing from kJoinModes");
  std::vector<double> telemetry_ratios;
  JoinRunResult tel_on;  // fastest telemetry-on run: the per-edge rows below
  std::printf("\n%-6s %-6s %12s %12s %8s   (telemetry axis, b64/batch, 4J)\n",
              "pair", "first", "off t/s", "on t/s", "on/off");
  for (int pair = 0; pair < kTelemetryPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    JoinRunResult run[2];  // [0] = off, [1] = on
    for (int k = 0; k < 2; ++k) {
      const bool telemetry = (k == 0) == on_first;
      run[telemetry ? 1 : 0] =
          JoinRun(*b64_batch, 4, stream, /*reps=*/1, /*egress_sink=*/false,
                  telemetry);
    }
    const double ratio = run[0].tuples_per_sec > 0
                             ? run[1].tuples_per_sec / run[0].tuples_per_sec
                             : 0;
    telemetry_ratios.push_back(ratio);
    if (run[1].tuples_per_sec > tel_on.tuples_per_sec) tel_on = run[1];
    std::printf("%-6d %-6s %12.0f %12.0f %7.3fx\n", pair,
                on_first ? "on" : "off", run[0].tuples_per_sec,
                run[1].tuples_per_sec, ratio);
    for (int e = 0; e < 2; ++e) {
      const JoinRunResult& r = run[e];
      out.AddRow()
          .Add("section", "join_4j_telemetry")
          .Add("mode", b64_batch->name)
          .Add("pair", pair)
          .Add("telemetry", e == 0 ? "off" : "on")
          .Add("first", on_first == (e == 1))
          .Add("machines", 4)
          .Add("tuples", kJoinTuples)
          .Add("tuples_per_sec", r.tuples_per_sec)
          .Add("on_off_ratio", ratio)
          .Add("credit_waits", r.stats.credit_waits)
          .Add("credit_wait_ns", r.stats.credit_wait_ns)
          .Add("overflow_batches", r.stats.overflow_batches);
    }
  }
  const Quartiles telemetry_q = QuartilesOf(telemetry_ratios);
  std::printf("on/off ratio over %d pairs: median %.3fx (q1 %.3fx, q3 %.3fx; "
              ">= %.2f required) %s\n",
              kTelemetryPairs, telemetry_q.median, telemetry_q.q1,
              telemetry_q.q3, kRequiredTelemetryRatio,
              PairedVerdict(telemetry_q, kRequiredTelemetryRatio));
  // Per-edge backpressure rows + aggregates from the telemetry run: one row
  // per active edge so the JSON shows where stalls and occupancy landed.
  uint64_t edge_credit_waits = 0, edge_credit_wait_ns = 0;
  uint64_t edge_overflow = 0, active_edges = 0;
  uint32_t edge_ring_peak = 0;
  for (const EdgeStatsSnapshot& edge : tel_on.edges) {
    if (edge.batches == 0) continue;
    ++active_edges;
    edge_credit_waits += edge.credit_waits;
    edge_credit_wait_ns += edge.credit_wait_ns;
    edge_overflow += edge.overflow_batches;
    edge_ring_peak = std::max(edge_ring_peak, edge.ring_peak);
    out.AddRow()
        .Add("section", "join_4j_edges")
        .Add("producer", edge.producer)
        .Add("consumer", edge.consumer)
        .Add("batches", edge.batches)
        .Add("envelopes", edge.envelopes)
        .Add("credit_waits", edge.credit_waits)
        .Add("credit_wait_ns", edge.credit_wait_ns)
        .Add("overflow_batches", edge.overflow_batches)
        .Add("ring_peak", static_cast<uint64_t>(edge.ring_peak))
        .Add("ring_capacity", static_cast<uint64_t>(edge.ring_capacity));
  }
  std::printf("per-edge (telemetry run): %llu active edges, credit_waits "
              "%llu, stall %.2f ms, overflow %llu, max ring_peak %u\n",
              static_cast<unsigned long long>(active_edges),
              static_cast<unsigned long long>(edge_credit_waits),
              static_cast<double>(edge_credit_wait_ns) / 1e6,
              static_cast<unsigned long long>(edge_overflow), edge_ring_peak);

  // ---- Acceptance summary -------------------------------------------------
  // "Per-tuple exchange" is every-envelope-ships-alone: the batched plane
  // at batch_size 1 (the reference configuration since the mutex Channel
  // plane's retirement).
  const double per_tuple_best = batched1_4j;
  const double raw_speedup =
      raw_per_tuple > 0 ? raw_best_batched / raw_per_tuple : 0;
  const double e2e_speedup =
      batched1_4j > 0 ? best_batched_4j / batched1_4j : 0;
  // Every overhead is floored at 1 ns before entering a ratio: a run that
  // beats the single-threaded sim ceiling has no measurable overhead, and
  // the symmetric floor keeps that from manufacturing either a huge
  // artifact ratio or a false-failing 0x.
  const double overhead_per_tuple_ns =
      std::max(1.0, 1e9 / per_tuple_best - ceiling_ns);
  const double overhead_batched_ns = std::max(1.0, overhead_batch_ns);
  const double overhead_ratio = overhead_per_tuple_ns / overhead_batched_ns;
  std::printf(
      "\nacceptance (batched, batch >= 64, vs per-tuple exchange):\n"
      "  raw 4-sink fan-out:          %.2fx tuples/sec (>= %.0fx required) "
      "%s\n"
      "  4-joiner run, end-to-end:    %.2fx tuples/sec vs batch=1 "
      "(compute-bound on this host:\n"
      "                               ceiling %.2fx of per-tuple rate "
      "caps any exchange speedup)\n"
      "  4-joiner exchange overhead:  %.1fx reduction "
      "(%.0f -> %.0f ns/tuple, >= %.0fx required) %s\n",
      raw_speedup, kRequiredRawSpeedup,
      bench::Verdict(raw_speedup, kRequiredRawSpeedup), e2e_speedup,
      ceiling_4j / per_tuple_best, overhead_ratio, overhead_per_tuple_ns,
      overhead_batched_ns, kRequiredOverheadReduction,
      bench::Verdict(overhead_ratio, kRequiredOverheadReduction));
  out.meta()
      .Add("raw_speedup_batched_vs_per_tuple", raw_speedup)
      .Add("join4j_e2e_speedup_batched_vs_batch1", e2e_speedup)
      .Add("join4j_overhead_reduction_batched_vs_per_tuple", overhead_ratio)
      .Add("egress_sink_vs_poll_b64_batch", egress_ratio_b64)
      .Add("join4j_telemetry_overhead_ratio", telemetry_q.median)
      .Add("join4j_telemetry_overhead_ratio_q1", telemetry_q.q1)
      .Add("join4j_telemetry_overhead_ratio_q3", telemetry_q.q3)
      .Add("join4j_telemetry_pairs", kTelemetryPairs)
      .Add("join4j_edge_credit_waits", edge_credit_waits)
      .Add("join4j_edge_credit_wait_ns", edge_credit_wait_ns)
      .Add("join4j_edge_overflow_batches", edge_overflow)
      .Add("join4j_edge_ring_peak", static_cast<uint64_t>(edge_ring_peak))
      .Add("join4j_active_edges", active_edges);
  out.Write();
  return 0;
}
