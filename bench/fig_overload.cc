// Overload survival under a 10x surge with autoscaling capped: when the
// grid cannot grow (max_expansions = 0 — the elastic escape hatch of
// fig_autoscale is closed), the only lever left is to do less work per
// tuple. Against a preloaded store (constant probe fan-out), a calm phase
// runs at a quarter of the exact operator's calibrated probe capacity;
// the surge then offers 10x that calm rate — 2.5x what exact probing can
// drain. The exact operator rides backpressure and its ingress backlog
// grows without bound, while the shedding operator's ControlLoop sees the
// backlog through its gauge, backs the probe-admission rate off, and
// holds the backlog below the configured ceiling at a sustained multiple
// of the exact throughput.
//
// A separate estimator phase prices what shedding costs: a fixed 25%
// admission rate over a stream with known per-key result cardinalities,
// asserting every Horvitz-Thompson weighted per-key frequency lands inside
// a Bernstein confidence bound (failure probability ~1e-9 per key).
//
// `--smoke` shrinks the surge window and estimator stream for CI. Emits
// BENCH_fig_overload.json; exit 0 only if the shed run held the backlog
// ceiling, the exact run exceeded it, the sustained-throughput multiple and
// the estimator bounds all hold.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/common/trace_ring.h"
#include "src/core/control_loop.h"
#include "src/core/operator.h"
#include "src/net/message.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"

using namespace ajoin;
using namespace ajoin::bench;

namespace {

constexpr uint32_t kExactPpm = static_cast<uint32_t>(kShedExactPpm);

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

/// Probe-dominated workload in two phases. A fixed R-side preload (64 keys
/// x 256 rows) is stored before the surge, so every later S probe scans and
/// emits a constant ~256 matches: probe work — exactly what shedding gates —
/// dominates the per-tuple cost, and the drain rate has a steady state
/// instead of degrading as the store grows.
constexpr int64_t kSurgeKeys = 64;
constexpr uint64_t kPreloadPerKey = 256;

std::vector<StreamTuple> MakePreload(uint64_t seed) {
  std::vector<StreamTuple> out;
  out.reserve(static_cast<size_t>(kSurgeKeys) * kPreloadPerKey);
  for (int64_t k = 0; k < kSurgeKeys; ++k) {
    for (uint64_t i = 0; i < kPreloadPerKey; ++i) {
      StreamTuple t;
      t.rel = Rel::kR;
      t.key = k;
      t.bytes = 16;
      out.push_back(t);
    }
  }
  Rng rng(seed);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(i)]);
  }
  return out;
}

std::vector<StreamTuple> MakeProbes(uint64_t count, uint64_t seed) {
  std::vector<StreamTuple> out;
  out.reserve(count);
  Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(kSurgeKeys));
    t.bytes = 16;
    out.push_back(t);
  }
  return out;
}

bool AllJoinersAtRate(const MetricsRegistry& registry, uint32_t rate) {
  size_t joiners = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner || !task.joiner.active) continue;
    ++joiners;
    if (task.joiner.shed_rate_ppm != rate) return false;
  }
  return joiners > 0;
}

/// Full-speed probe drain rate of the capped exact operator against the
/// preloaded store — the capacity yardstick the surge is a multiple of.
double CalibrateExactRate(uint64_t probes) {
  ExchangeConfig xc;
  xc.batch_size = 32;
  xc.ring_slots = 4;
  ThreadEngine engine(xc);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 512;
  cfg.keep_rows = false;
  JoinOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : MakePreload(7)) op.Push(t);
  op.FlushInput();
  engine.WaitQuiescent();
  const auto stream = MakeProbes(probes, 8);
  const auto t0 = std::chrono::steady_clock::now();
  for (const StreamTuple& t : stream) op.Push(t);
  op.FlushInput();
  engine.WaitQuiescent();
  const double secs = SecsSince(t0);
  op.SendEos();
  engine.WaitQuiescent();
  engine.Shutdown();
  return static_cast<double>(probes) / secs;
}

struct SurgeResult {
  double window_secs = 0;
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  uint64_t peak_backlog = 0;
  uint64_t outputs = 0;
  uint64_t rate_changes = 0;
  uint32_t min_rate_ppm = kExactPpm;
  uint64_t shed_enter_events = 0;
  uint64_t shed_exit_events = 0;
  bool recovered = true;
};

/// Preloads the store, runs a short calm phase at a tenth of the surge
/// rate, then drives the paced surge (probes/s) against the capped
/// 4-joiner grid for `window_secs` — all through a driver queue whose
/// depth is the ingress backlog gauge. With `shed` a ControlLoop
/// watches that gauge against `backlog_ceiling`; without, the operator is
/// exact and the queue absorbs whatever the operator cannot drain.
SurgeResult RunSurge(bool shed, double offered_rate, double window_secs,
                     uint64_t backlog_ceiling) {
  ExchangeConfig xc;
  xc.batch_size = 32;
  xc.ring_slots = 4;
  TraceRing trace(1 << 14);
  if (shed) xc.trace = &trace;
  ThreadEngine engine(xc);
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 512;
  cfg.max_expansions = 0;  // autoscaling capped: shedding is the only lever
  cfg.keep_rows = false;
  cfg.registry = &registry;
  if (shed) cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  // Store phase: fixed R side in place before any load arrives, so the
  // probe fan-out (and with it the drain rate) is constant over the run.
  for (const StreamTuple& t : MakePreload(7)) op.Push(t);
  op.FlushInput();
  engine.WaitQuiescent();

  std::mutex queue_mu;
  std::deque<StreamTuple> queue;
  std::atomic<uint64_t> backlog{0};
  std::atomic<bool> stop{false};

  ControlLoop::Options lopts;
  lopts.period_us = 1000;
  ControlLoop loop(&registry, lopts);
  size_t shed_op = 0;
  if (shed) {
    ShedConfig sc;
    sc.enter_stall_ratio = 0;  // backlog gauge is the trigger
    sc.enter_backlog = backlog_ceiling / 4;
    sc.exit_backlog = backlog_ceiling / 20;
    sc.overload_ticks = 2;
    sc.recover_ticks = 4;
    sc.cooldown_ticks = 2;
    sc.min_rate_ppm = kExactPpm / 32;
    shed_op = loop.Shed(op, op.joiner_task_ids(), sc);
    loop.SetBacklogSource(
        [&backlog] { return backlog.load(std::memory_order_relaxed); });
    loop.Start();
  }

  SurgeResult r;
  std::atomic<uint64_t> accepted{0};
  std::thread feeder([&] {
    std::vector<StreamTuple> run;
    while (true) {
      run.clear();
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        for (int i = 0; i < 256 && !queue.empty(); ++i) {
          run.push_back(queue.front());
          queue.pop_front();
        }
        backlog.store(queue.size(), std::memory_order_relaxed);
      }
      if (run.empty()) {
        if (stop.load(std::memory_order_relaxed)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      for (const StreamTuple& t : run) {
        if (stop.load(std::memory_order_relaxed)) return;
        op.Push(t);  // blocks on backpressure: this is the drain rate
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Paced offering: every millisecond the producer tops the queue up to
  // rate * elapsed, so offered load is constant regardless of drain speed.
  // A calm lead-in at a tenth of the surge rate establishes the baseline
  // the surge is 10x of — the operator keeps up and the gauge stays flat.
  const double calm_secs = 0.3;
  const auto probes = MakeProbes(
      static_cast<uint64_t>(offered_rate * (window_secs + calm_secs / 10)) + 1,
      11);
  uint64_t produced = 0;
  const auto Pace = [&](double rate, double secs, bool record) {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t base = produced;
    while (produced < probes.size()) {
      const double elapsed = SecsSince(t0);
      if (elapsed >= secs) break;
      const uint64_t target = std::min<uint64_t>(
          probes.size(), base + static_cast<uint64_t>(rate * elapsed));
      if (target > produced) {
        std::lock_guard<std::mutex> lock(queue_mu);
        for (; produced < target; ++produced) {
          queue.push_back(probes[produced]);
        }
        const uint64_t depth = queue.size();
        backlog.store(depth, std::memory_order_relaxed);
        if (record && depth > r.peak_backlog) r.peak_backlog = depth;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return SecsSince(t0);
  };
  Pace(offered_rate / 10, calm_secs, /*record=*/false);
  const uint64_t surge_base = accepted.load(std::memory_order_relaxed);
  const uint64_t produced_base = produced;
  r.window_secs = Pace(offered_rate, window_secs, /*record=*/true);
  r.offered = produced - produced_base;

  // Window over: stop offering, drop what never made it in (an overloaded
  // exact operator would take unbounded time to drain it), and settle.
  stop.store(true, std::memory_order_relaxed);
  feeder.join();
  r.accepted = accepted.load(std::memory_order_relaxed) - surge_base;
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    r.dropped = queue.size();
    queue.clear();
    backlog.store(0, std::memory_order_relaxed);
  }
  op.FlushInput();
  engine.WaitQuiescent();
  if (shed) {
    // Backlog gone: the loop must walk the rate back to exact.
    r.recovered = PollUntil(
        [&] { return loop.shed_rate_ppm(shed_op) == kExactPpm; }, 15000);
    loop.Stop();
    r.rate_changes =
        loop.accepted_count(shed_op, ControlLoop::Action::kShedRate);
    for (const ControlLoop::Decision& d : loop.decisions()) {
      r.min_rate_ppm =
          std::min(r.min_rate_ppm, static_cast<uint32_t>(d.next));
    }
    for (const TraceEvent& ev : trace.Snapshot()) {
      if (ev.kind == TraceEventKind::kShedEnter) ++r.shed_enter_events;
      if (ev.kind == TraceEventKind::kShedExit) ++r.shed_exit_events;
    }
  }
  op.SendEos();
  engine.WaitQuiescent();
  r.outputs = op.TotalOutputs();
  engine.Shutdown();
  return r;
}

// ---- Estimator accuracy: Horvitz-Thompson weights under a fixed rate -------

/// Bernstein deviation bound for a per-key weighted count: sum of C/m_max
/// independent terms m_max * (Bernoulli(p)/p), solved for t at failure
/// probability delta (see tests/shed_test.cc for the derivation).
double BernsteinBound(double total, double m_max, double p, double delta) {
  const double var = total * m_max * (1.0 - p) / p;
  const double l = std::log(2.0 / delta);
  return std::sqrt(2.0 * var * l) + 2.0 / 3.0 * (m_max / p) * l;
}

struct EstimatorResult {
  double exact_per_key = 0;
  double bound = 0;
  double max_abs_error = 0;
  double weighted_total = 0;
  double exact_total = 0;
  uint64_t raw_results = 0;
  bool within_bounds = false;
};

EstimatorResult RunEstimator(int64_t keys, uint64_t s_per_key) {
  const double p = 0.25;
  std::vector<StreamTuple> stream;
  Rng rng(13);
  // All R first, then all S (shuffled within each phase), with the R phase
  // stored everywhere before the first S probe (the threaded plane keeps
  // order per edge, not across reshufflers): every S-probe matches exactly
  // the 4 stored R rows of its key, so the exact per-key count is
  // 4 * s_per_key and the per-term range in the bound is tight.
  for (int64_t k = 0; k < keys; ++k) {
    for (int i = 0; i < 4; ++i) {
      StreamTuple t;
      t.rel = Rel::kR;
      t.key = k;
      t.bytes = 16;
      stream.push_back(t);
    }
  }
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.Uniform(i)]);
  }
  const size_t r_end = stream.size();
  for (int64_t k = 0; k < keys; ++k) {
    for (uint64_t i = 0; i < s_per_key; ++i) {
      StreamTuple t;
      t.rel = Rel::kS;
      t.key = k;
      t.bytes = 16;
      stream.push_back(t);
    }
  }
  for (size_t i = stream.size(); i > r_end + 1; --i) {
    std::swap(stream[i - 1], stream[r_end + rng.Uniform(i - r_end)]);
  }

  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  Dataflow df(engine);
  df.SetTelemetry(&registry, nullptr);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.initial = MidMapping(4);
  cfg.use_initial = true;
  cfg.keep_rows = false;
  const int join = df.AddJoin(cfg);
  ResultSink::Options so;
  so.collect_pairs = false;
  so.collect_keyed_weights = true;
  const int sink = df.AddSink(so);
  df.Connect(join, sink);
  engine.Start();
  JoinOperator& op = df.join(join);
  op.SetShedRate(static_cast<uint32_t>(p * kExactPpm));
  PollUntil(
      [&] {
        return AllJoinersAtRate(registry, static_cast<uint32_t>(p * kExactPpm));
      },
      10000);
  for (size_t i = 0; i < r_end; ++i) op.Push(stream[i]);
  op.FlushInput();
  engine.WaitQuiescent();
  for (size_t i = r_end; i < stream.size(); ++i) op.Push(stream[i]);
  df.SendEos();
  engine.WaitQuiescent();

  EstimatorResult e;
  e.exact_per_key = 4.0 * static_cast<double>(s_per_key);
  e.exact_total = e.exact_per_key * static_cast<double>(keys);
  e.bound = BernsteinBound(e.exact_per_key, 4.0, p, 1e-9);
  const ResultSink& s = df.sink(sink);
  e.raw_results = s.count();
  e.weighted_total = s.weighted_count();
  std::vector<double> per_key(static_cast<size_t>(keys), 0.0);
  for (const auto& kw : s.keyed_weights()) {
    if (kw.first >= 0 && kw.first < keys) {
      per_key[static_cast<size_t>(kw.first)] += kw.second;
    }
  }
  for (int64_t k = 0; k < keys; ++k) {
    const double err =
        std::fabs(per_key[static_cast<size_t>(k)] - e.exact_per_key);
    if (err > e.max_abs_error) e.max_abs_error = err;
  }
  e.within_bounds = e.max_abs_error <= e.bound;
  engine.Shutdown();
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintHeader("Overload survival: exact backpressure vs adaptive shedding "
              "under a 10x surge, autoscaling capped");

  const uint64_t calib_probes = smoke ? 20000 : 50000;
  const double window_secs = smoke ? 0.8 : 2.0;
  // The surge is 10x the calm baseline; the baseline sits at a quarter of
  // the exact operator's calibrated capacity, so the surge offers 2.5x what
  // exact probing can drain — survivable only by probing less.
  const double surge_multiple = 10.0;
  const double overload_multiple = 2.5;

  const double exact_rate = CalibrateExactRate(calib_probes);
  const double offered = exact_rate * overload_multiple;
  // Ceiling = a quarter-second of offered load: the exact deficit blows
  // through it in well under a second; the shed operator must hold it.
  const uint64_t ceiling = static_cast<uint64_t>(offered * 0.25);

  JsonResult out("fig_overload");
  out.meta()
      .Add("smoke", smoke)
      .Add("calibrated_exact_tuples_per_sec", exact_rate)
      .Add("surge_multiple_vs_calm", surge_multiple)
      .Add("overload_multiple_vs_exact_capacity", overload_multiple)
      .Add("calm_tuples_per_sec", offered / surge_multiple)
      .Add("offered_tuples_per_sec", offered)
      .Add("backlog_ceiling", ceiling)
      .Add("window_secs", window_secs)
      .Add("preload_keys", static_cast<uint64_t>(kSurgeKeys))
      .Add("preload_rows_per_key", kPreloadPerKey)
      .Add("joiners", 4)
      .Add("max_expansions", 0);

  std::printf("\ncalibrated exact probe drain: %.0f tuples/s; surge offers "
              "10x calm = %.1fx capacity = %.0f tuples/s; backlog ceiling "
              "%llu\n",
              exact_rate, overload_multiple, offered,
              static_cast<unsigned long long>(ceiling));
  std::printf("\n%-14s %14s %14s %10s %12s %10s\n", "mode", "accepted/s",
              "peak backlog", "held?", "min rate", "recovered");

  double tput[2] = {0, 0};
  uint64_t peaks[2] = {0, 0};
  bool recovered = true;
  uint64_t shed_enters = 0;
  for (int i = 0; i < 2; ++i) {
    const bool shed = i == 1;
    SurgeResult r = RunSurge(shed, offered, window_secs, ceiling);
    tput[i] = static_cast<double>(r.accepted) / r.window_secs;
    peaks[i] = r.peak_backlog;
    if (shed) {
      recovered = r.recovered;
      shed_enters = r.shed_enter_events;
    }
    std::printf("%-14s %14.0f %14llu %10s %12s %10s\n",
                shed ? "shed" : "exact-stall", tput[i],
                static_cast<unsigned long long>(r.peak_backlog),
                r.peak_backlog <= ceiling ? "yes" : "NO",
                shed ? std::to_string(r.min_rate_ppm).c_str() : "-",
                shed ? (r.recovered ? "yes" : "NO") : "-");
    JsonRow& row = out.AddRow();
    row.Add("mode", shed ? "shed" : "exact-stall")
        .Add("accepted_tuples_per_sec", tput[i])
        .Add("offered_tuples", r.offered)
        .Add("accepted_tuples", r.accepted)
        .Add("dropped_tuples", r.dropped)
        .Add("peak_backlog", r.peak_backlog)
        .Add("backlog_held", r.peak_backlog <= ceiling)
        .Add("outputs", r.outputs)
        .Add("min_rate_ppm", static_cast<uint64_t>(r.min_rate_ppm))
        .Add("rate_changes", r.rate_changes)
        .Add("shed_enter_events", r.shed_enter_events)
        .Add("shed_exit_events", r.shed_exit_events)
        .Add("recovered_to_exact", r.recovered);
  }

  const EstimatorResult est =
      RunEstimator(/*keys=*/16, /*s_per_key=*/smoke ? 200 : 400);
  out.meta()
      .Add("estimator_rate", 0.25)
      .Add("estimator_exact_per_key", est.exact_per_key)
      .Add("estimator_bound_per_key", est.bound)
      .Add("estimator_max_abs_error", est.max_abs_error)
      .Add("estimator_weighted_total", est.weighted_total)
      .Add("estimator_exact_total", est.exact_total)
      .Add("estimator_raw_results", est.raw_results)
      .Add("estimator_within_bounds", est.within_bounds);

  const double sustain = tput[1] / tput[0];
  const bool exact_blew = peaks[0] > ceiling;
  const bool shed_held = peaks[1] <= ceiling;
  const bool sustained = sustain >= 1.5;
  out.meta()
      .Add("sustain_multiple", sustain)
      .Add("required_sustain_multiple", 1.5);
  std::printf("\nshed sustained %.2fx the exact-stall throughput "
              "(required >= 1.5) %s\n", sustain, sustained ? "OK" : "BELOW");
  std::printf("exact peak backlog %s the ceiling; shed %s it; recovery %s\n",
              exact_blew ? "exceeded" : "DID NOT EXCEED",
              shed_held ? "held" : "BLEW", recovered ? "OK" : "MISSING");
  std::printf("estimator: max per-key |error| %.1f vs bound %.1f "
              "(weighted total %.0f, exact %.0f) %s\n",
              est.max_abs_error, est.bound, est.weighted_total,
              est.exact_total, est.within_bounds ? "OK" : "OUT OF BOUNDS");
  out.Write();
  const bool ok = exact_blew && shed_held && sustained && recovered &&
                  est.within_bounds && shed_enters >= 1;
  return ok ? 0 : 1;
}
