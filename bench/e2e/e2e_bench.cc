// End-to-end benchmark of the adaptive online join on ThreadEngine (J = 4,
// one driver thread). One invocation runs one workload with one seed:
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--out DIR]
//
// The input is generated and its exact expected output computed before any
// timing. With --trace 0 the run measures the end-to-end metrics with
// tracing off: open-loop latency (median over the results of replays filling
// the first half of S), closed-loop throughput and peak RSS (medians over reps filling
// the other half), and set-up time (median of set-up-only reps). Every rep
// and replay runs on a fresh engine in a forked process, so none inherits
// the heap of another. With --trace 1 it measures the per-layer metrics
// instead, from a run under the TracingEngine decorator, open-loop replays
// and a single-threaded SimEngine run of the same stream; the spans go to
// DIR as Chrome trace-event JSON. Every run's output is checked against the
// expected output. Metrics are printed as `<workload>.<metric> <value>
// <unit>` lines, written to DIR as JSON, and summarized on the last stdout
// line as one JSON object; any wrong, missing or extra result (or rejected
// post) exits 1. README.md defines every metric.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/e2e/tracing_engine.h"
#include "bench/e2e/workloads.h"
#include "src/core/agg.h"
#include "src/core/operator.h"
#include "src/query/dataflow.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace e2e {
namespace {

using ajoin::Envelope;
using ajoin::MsgType;

constexpr uint32_t kMachines = 4;        // J
constexpr uint32_t kIngressBatch = 64;   // tuples staged per reshuffler
constexpr uint64_t kMinAdapt = 1024;     // tuples before the first decision
constexpr uint64_t kSimDrainEvery = 4096;
constexpr size_t kPushSpan = 256;        // pushes per traced driver span
constexpr double kClosedShare = 0.5;     // of --seconds; the rest is open loop
constexpr std::chrono::seconds kSettle{1};  // idle before the open loop
constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
constexpr int kSetupRepsPerRep = 4;    // set-up-only reps before each rep
constexpr uint64_t kTickNs = 100000;     // open-loop burst period
constexpr uint64_t kLateNs = 10000000;   // late_frac_10ms threshold

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

struct Usage {
  double cpu_s = 0;
  double vol = 0;
  double invol = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.vol = static_cast<double>(ru.ru_nvcsw);
  u.invol = static_cast<double>(ru.ru_nivcsw);
  return u;
}

// ---------------------------------------------------------------------------
// Result latency: log-linear buckets (128 per power of two, < 0.8% error),
// quantiles interpolated inside the bucket.
// ---------------------------------------------------------------------------

class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[Bucket(ns)];
    ++count_;
    if (ns > kLateNs) ++late_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    late_ += other.late_;
  }

  uint64_t count() const { return count_; }
  double late_fraction() const {
    return count_ == 0 ? 0 : static_cast<double>(late_) / count_;
  }

  double QuantileUs(double q) const {
    const double target = q * static_cast<double>(count_);
    double cum = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      const double c = static_cast<double>(counts_[b]);
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return (Lower(b) + frac * Width(b)) / 1e3;
      }
      cum += c;
    }
    return 0;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSubMask = (uint64_t{1} << kSubBits) - 1;

  static size_t Bucket(uint64_t v) {
    if (v <= kSubMask) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    return (static_cast<size_t>(e - kSubBits + 1) << kSubBits) |
           static_cast<size_t>((v >> (e - kSubBits)) & kSubMask);
  }
  static double Lower(size_t b) {
    const size_t e_idx = b >> kSubBits;
    if (e_idx == 0) return static_cast<double>(b);
    const int e = static_cast<int>(e_idx) + kSubBits - 1;
    return static_cast<double>((uint64_t{1} << e) +
                               ((b & kSubMask) << (e - kSubBits)));
  }
  static double Width(size_t b) {
    const size_t e_idx = b >> kSubBits;
    if (e_idx == 0) return 1;
    const int e = static_cast<int>(e_idx) + kSubBits - 1;
    return static_cast<double>(uint64_t{1} << (e - kSubBits));
  }

  // A fixed-size array keeps the histogram trivially copyable, so a rep
  // process can send it back whole (see InChild).
  std::array<uint64_t, size_t{64 - kSubBits + 1} << kSubBits> counts_{};
  uint64_t count_ = 0;
  uint64_t late_ = 0;
};

// ---------------------------------------------------------------------------
// The benchmark's sink: counts and checksums join results, times them
// against the open-loop schedule, and keeps group-by rows for FoldAggRows.
// ---------------------------------------------------------------------------

/// Open-loop arrivals: a burst of `per_tick` tuples every `tick_ns`; tuple i
/// is due at the start of its burst.
struct Schedule {
  uint64_t t0_ns = 0;
  uint64_t tick_ns = 0;
  double per_tick = 0;  // 0: no schedule (closed loop)

  uint64_t DueNs(uint64_t i) const {
    return t0_ns + static_cast<uint64_t>(static_cast<double>(i) / per_tick) *
                       tick_ns;
  }
};

class BenchSink : public ajoin::Task {
 public:
  /// Set before the first push; the exchange plane orders it before every
  /// result.
  void SetSchedule(const Schedule& sched) { sched_ = sched; }

  void OnMessage(Envelope msg, ajoin::Context& ctx) override {
    (void)ctx;
    Consume(msg, WallNs());
  }

  void OnBatch(ajoin::TupleBatch batch, ajoin::Context& ctx) override {
    (void)ctx;
    const uint64_t now = WallNs();  // one clock read per arriving batch
    for (Envelope& msg : batch.items) Consume(msg, now);
  }

  uint64_t results() const { return results_; }
  uint64_t checksum() const { return checksum_; }
  uint64_t last_arrival_ns() const { return last_arrival_ns_; }
  const LatencyHistogram& latency() const { return latency_; }
  const std::vector<ajoin::Row>& rows() const { return rows_; }

 private:
  void Consume(Envelope& msg, uint64_t now) {
    if (msg.type == MsgType::kEos) return;
    if (msg.type != MsgType::kResult) {
      std::fprintf(stderr, "sink: unexpected %s\n",
                   ajoin::MsgTypeName(msg.type));
      std::abort();
    }
    ++results_;
    last_arrival_ns_ = now;
    if (msg.has_row) {  // a group-by aggregate
      rows_.push_back(std::move(msg.row));
      return;
    }
    checksum_ += PairHash(msg.seq, msg.tag);
    if (sched_.per_tick > 0) {
      const uint64_t due = sched_.DueNs(std::max(msg.seq, msg.tag));
      latency_.Record(now > due ? now - due : 0);
    }
  }

  Schedule sched_;
  uint64_t results_ = 0;
  uint64_t checksum_ = 0;
  uint64_t last_arrival_ns_ = 0;
  LatencyHistogram latency_;
  std::vector<ajoin::Row> rows_;
};

// ---------------------------------------------------------------------------
// One assembled operator graph on a fresh engine.
// ---------------------------------------------------------------------------

enum class EngineKind { kThreads, kTraced, kSim };

class Topology {
 public:
  Topology(const WorkloadDef& w, const Stream& stream, EngineKind kind) {
    switch (kind) {
      case EngineKind::kThreads: {
        auto engine = std::make_unique<ajoin::ThreadEngine>();
        threads_ = engine.get();
        engine_ = std::move(engine);
        break;
      }
      case EngineKind::kTraced: {
        auto engine = std::make_unique<TracingEngine>();
        tracer_ = engine.get();
        threads_ = &engine->inner();
        engine_ = std::move(engine);
        break;
      }
      case EngineKind::kSim:
        engine_ = std::make_unique<ajoin::SimEngine>();
        break;
    }
    ajoin::OperatorConfig cfg;
    cfg.spec = stream.spec;
    cfg.machines = kMachines;
    cfg.keep_rows = false;
    cfg.min_total_before_adapt = kMinAdapt;
    if (w.id == WorkloadId::kJoinGroupby) {
      flow_ = std::make_unique<ajoin::Dataflow>(*engine_);
      join_stage_ = flow_->AddJoin(cfg);
      ajoin::AggConfig agg;
      agg.machines = kMachines;
      agg_stage_ = flow_->AddGroupBy(agg);
      flow_->Connect(join_stage_, agg_stage_);
      sink_id_ = engine_->AddTask(std::make_unique<BenchSink>());
      flow_->groupby(agg_stage_).RouteResultsTo({sink_id_});
    } else {
      op_ = std::make_unique<ajoin::JoinOperator>(*engine_, cfg);
      sink_id_ = engine_->AddTask(std::make_unique<BenchSink>());
      op_->RouteResultsTo({sink_id_});
    }
    join().SetIngressBatch(kIngressBatch);
    engine_->Start();
  }

  void Push(const SlimTuple& t) {
    tuple_.rel = t.rel;
    tuple_.key = t.key;
    tuple_.bytes = t.bytes;
    join().Push(tuple_);
    if (threads_ == nullptr && ++since_drain_ == kSimDrainEvery) {
      // The simulator's queue is unbounded; drain it like a driver would.
      since_drain_ = 0;
      join().FlushInput();
      engine_->WaitQuiescent();
    }
  }

  void FlushInput() { join().FlushInput(); }

  /// End of stream: EOS to every stage, then wait until everything drained.
  void Finish() {
    if (flow_ != nullptr) {
      flow_->SendEos();
    } else {
      op_->SendEos();
    }
    engine_->WaitQuiescent();
  }

  ajoin::JoinOperator& join() {
    return flow_ != nullptr ? flow_->join(join_stage_) : *op_;
  }
  ajoin::AggOperator* agg() {
    return flow_ != nullptr ? &flow_->groupby(agg_stage_) : nullptr;
  }
  BenchSink& sink() { return *static_cast<BenchSink*>(engine_->task(sink_id_)); }
  /// Null on the simulator.
  ajoin::ThreadEngine* threads() { return threads_; }
  /// Null unless traced.
  TracingEngine* tracer() { return tracer_; }

 private:
  // Declared first, destroyed last: operators close their ports before the
  // engine goes away.
  std::unique_ptr<ajoin::Engine> engine_;
  ajoin::ThreadEngine* threads_ = nullptr;
  TracingEngine* tracer_ = nullptr;
  std::unique_ptr<ajoin::JoinOperator> op_;
  std::unique_ptr<ajoin::Dataflow> flow_;
  int join_stage_ = -1;
  int agg_stage_ = -1;
  int sink_id_ = -1;
  ajoin::StreamTuple tuple_;
  uint64_t since_drain_ = 0;
};

// ---------------------------------------------------------------------------
// Output checking.
// ---------------------------------------------------------------------------

/// Failures counted against attempts: input tuples pushed plus results
/// expected, across every checked run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Checks a finished run of the first `pushed` tuples against `want`.
void Verify(Topology& topo, size_t pushed, const Expected& want,
            Tally* tally) {
  ajoin::JoinOperator& op = topo.join();
  uint64_t routed = 0;
  for (uint32_t r = 0; r < op.num_reshufflers(); ++r) {
    routed += op.reshuffler(r).metrics().routed_tuples;
  }
  uint64_t failed = routed > pushed ? routed - pushed : pushed - routed;
  tally->attempted += pushed;

  BenchSink& sink = topo.sink();
  if (topo.agg() != nullptr) {
    const std::vector<ajoin::AggResult>& exp = want.groups;
    const std::vector<ajoin::AggResult> got = ajoin::FoldAggRows(sink.rows());
    size_t i = 0, j = 0;
    while (i < exp.size() || j < got.size()) {
      if (j == got.size() || (i < exp.size() && exp[i].key < got[j].key)) {
        ++failed, ++i;  // missing group
      } else if (i == exp.size() || got[j].key < exp[i].key) {
        ++failed, ++j;  // extra group
      } else {
        if (!(exp[i].acc == got[j].acc)) ++failed;
        ++i, ++j;
      }
    }
    tally->attempted += exp.size();
  } else {
    const uint64_t diff = sink.results() > want.results
                              ? sink.results() - want.results
                              : want.results - sink.results();
    failed += std::max<uint64_t>(diff, sink.checksum() != want.checksum);
    tally->attempted += want.results;
  }
  if (failed > 0) {
    std::fprintf(stderr, "check failed: %llu failures over %zu tuples\n",
                 static_cast<unsigned long long>(failed), pushed);
  }
  tally->failed += failed;
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

/// Runs `fn` in a forked child and returns its trivially copyable result,
/// so every rep starts from the same process state: no heap or allocator
/// state left by earlier reps. The caller must be single-threaded (every
/// engine torn down). `peak_rss_mb`, if set, receives the child's
/// ru_maxrss.
template <typename T, typename Fn>
T InChild(Fn fn, double* peak_rss_mb) {
  static_assert(std::is_trivially_copyable<T>::value, "sent through a pipe");
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(2);
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    close(fds[0]);
    const T result = fn();
    const char* p = reinterpret_cast<const char*>(&result);
    for (size_t left = sizeof(T); left > 0;) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  T result{};
  char* p = reinterpret_cast<char*>(&result);
  size_t got = 0;
  while (got < sizeof(T)) {
    const ssize_t n = read(fds[0], p + got, sizeof(T) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (got != sizeof(T) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "rep process failed (status %d)\n", status);
    std::exit(2);
  }
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  return result;
}

struct ClosedRun {
  double tps = 0;
  double wall_s = 0;
  double flush_us = 0;  // last result's arrival after the last Push
  Usage usage;     // process usage over the measured interval
  size_t threads = 0;
  uint64_t push_wall_ns = 0;  // traced runs: driver time inside Push
  std::unique_ptr<Topology> topo;  // kept for per-layer harvesting
};

/// Closed loop: push the whole stream as fast as backpressure allows, then
/// EOS and wait for quiescence. With `driver`, the driver's pushes and drain
/// are recorded as spans.
ClosedRun RunClosed(const WorkloadDef& w, const Stream& stream,
                    const Expected& want, EngineKind kind, Tally* tally,
                    SpanBuffer* driver = nullptr) {
  ClosedRun run;
  const size_t n = stream.tuples.size();
  run.topo = std::make_unique<Topology>(w, stream, kind);
  Topology& topo = *run.topo;
  if (topo.threads() != nullptr) {
    run.threads = topo.threads()->live_workers() + 1;  // + this driver
  }
  const Usage u0 = ProcessUsage();
  const uint64_t p0 = WallNs();
  size_t next = 0;
  while (next < n) {
    const size_t end = std::min(n, next + kPushSpan);
    Span span;
    span.envelopes = static_cast<uint32_t>(end - next);
    if (driver != nullptr) {
      span.start_ns = WallNs();
      span.cpu_ns = ThreadCpuNs();
    }
    for (; next < end; ++next) topo.Push(stream.tuples[next]);
    if (driver != nullptr) {
      span.cpu_ns = ThreadCpuNs() - span.cpu_ns;
      span.wall_ns = WallNs() - span.start_ns;
      run.push_wall_ns += span.wall_ns;
      driver->Record(span);
    }
  }
  Span drain;  // EOS and the wait for quiescence
  drain.start_ns = WallNs();
  const uint64_t pushed_ns = drain.start_ns;
  drain.type = MsgType::kEos;
  topo.Finish();
  const uint64_t p1 = WallNs();
  if (driver != nullptr) {
    drain.wall_ns = p1 - drain.start_ns;
    driver->Record(drain);
  }
  const Usage u1 = ProcessUsage();
  run.wall_s = Seconds(p1 - p0);
  const uint64_t last = topo.sink().last_arrival_ns();
  run.flush_us =
      last > pushed_ns ? static_cast<double>(last - pushed_ns) / 1e3 : 0;
  run.tps = static_cast<double>(n) / run.wall_s;
  run.usage.cpu_s = u1.cpu_s - u0.cpu_s;
  run.usage.vol = u1.vol - u0.vol;
  run.usage.invol = u1.invol - u0.invol;
  Verify(topo, n, want, tally);
  return run;
}

struct ClosedRep {
  double tps = 0;
  double flush_us = 0;
  Tally tally;
};

/// One untraced closed-loop rep in its own process.
ClosedRep RunClosedRep(const WorkloadDef& w, const Stream& stream,
                       const Expected& want, double* peak_rss_mb) {
  return InChild<ClosedRep>(
      [&] {
        ClosedRep rep;
        const ClosedRun run =
            RunClosed(w, stream, want, EngineKind::kThreads, &rep.tally);
        rep.tps = run.tps;
        rep.flush_us = run.flush_us;
        return rep;
      },
      peak_rss_mb);
}

/// Set-up only: construction, assembly, Start() and the first Push, up to
/// the engine accepting it (the flush posts the staged tuple to the exchange
/// plane; a lone Push only stages it in the operator).
double RunSetupOnly(const WorkloadDef& w, const Stream& stream,
                    const Expected& want, Tally* tally) {
  const uint64_t c0 = WallNs();
  Topology topo(w, stream, EngineKind::kThreads);
  topo.Push(stream.tuples[0]);
  topo.FlushInput();
  const double setup = Seconds(WallNs() - c0);
  topo.Finish();
  Verify(topo, 1, want, tally);
  return setup;
}

struct OpenRun {
  LatencyHistogram latency;
  double gen_lag_ms_max = 0;
  Tally tally;
};

/// Open loop: replay the first `m` tuples at the workload's rate in bursts
/// of one tick each. The driver sleeps until a burst is due, then pushes
/// every tuple due by now (catching up if it ran late).
OpenRun RunOpen(const WorkloadDef& w, const Stream& stream, size_t m,
                const Expected& want) {
  OpenRun run;
  Topology topo(w, stream, EngineKind::kThreads);
  // The default 50 us timer slack would make every burst that much late and
  // charge the generator's own oversleep to the join's latency. Set after
  // the engine spawned its workers, so only this driver thread gets it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Schedule sched;
  sched.tick_ns = kTickNs;
  sched.per_tick = w.rate * static_cast<double>(kTickNs) / 1e9;
  sched.t0_ns = WallNs() + 1000000;  // first burst due in 1 ms
  topo.sink().SetSchedule(sched);
  uint64_t lag_max = 0;
  size_t next = 0;
  uint64_t ticks = 0;  // bursts released so far
  while (next < m) {
    const uint64_t now = WallNs();
    const uint64_t tick_at = sched.t0_ns + ticks * sched.tick_ns;
    if (now < tick_at) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(tick_at)));
      continue;
    }
    lag_max = std::max(lag_max, now - sched.DueNs(next));
    ticks = (now - sched.t0_ns) / sched.tick_ns + 1;
    const size_t due = std::min<size_t>(
        m, static_cast<size_t>(std::ceil(static_cast<double>(ticks) *
                                         sched.per_tick)));
    for (; next < due; ++next) topo.Push(stream.tuples[next]);
    topo.FlushInput();
  }
  topo.Finish();
  run.latency = topo.sink().latency();
  run.gen_lag_ms_max = static_cast<double>(lag_max) / 1e6;
  Verify(topo, m, want, &run.tally);
  return run;
}

/// Calls `rep` until `seconds` are spent, between kMinReps and kMaxReps
/// times; stops early when one more average rep would overrun.
template <typename Fn>
void Repeat(double seconds, Fn rep) {
  const uint64_t start = WallNs();
  for (int i = 0; i < kMaxReps; ++i) {
    const double spent = Seconds(WallNs() - start);
    if (i >= kMinReps && spent + spent / i > seconds) break;
    rep();
  }
}

/// Latency is pooled over the results of every replay. On a host whose
/// wake-ups switch between a fast and a slow mode for seconds at a time, a
/// median of per-replay medians flips to the slow mode once it covers half
/// the replays; the pooled median moves in proportion instead.
struct OpenSummary {
  LatencyHistogram latency;
  size_t replays = 0;
  double gen_lag_ms_max = 0;
};

/// Open-loop replays of the first rate x replay_seconds tuples, each in its
/// own rep process, for `seconds`; calls `before` ahead of each replay.
template <typename Fn>
OpenSummary RunOpenReps(const WorkloadDef& w, const Stream& stream,
                        double seconds, Tally* tally, Fn before) {
  const auto m = static_cast<size_t>(
      std::clamp(w.rate * w.replay_seconds, 1.0,
                 static_cast<double>(stream.tuples.size())));
  const Expected want =
      ExpectedOutput(stream, m, w.id == WorkloadId::kJoinGroupby);
  // After seconds with every core saturated (the previous run's closed
  // loop), a shared virtual machine can serve wake-ups tens of microseconds
  // slower for a second or two; an idle pause keeps that out of the first
  // replays.
  std::this_thread::sleep_for(kSettle);
  OpenSummary s;
  Repeat(seconds, [&] {
    before();
    const OpenRun run =
        InChild<OpenRun>([&] { return RunOpen(w, stream, m, want); }, nullptr);
    tally->Add(run.tally);
    s.latency.Merge(run.latency);
    ++s.replays;
    s.gen_lag_ms_max = std::max(s.gen_lag_ms_max, run.gen_lag_ms_max);
  });
  return s;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string MetricsJson() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value);
      out += buf;
      out += "\"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run.
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// max / mean over the non-zero entries.
double Imbalance(const std::vector<double>& v) {
  double sum = 0, mx = 0;
  size_t n = 0;
  for (double x : v) {
    if (x <= 0) continue;
    sum += x;
    mx = std::max(mx, x);
    ++n;
  }
  return n == 0 ? 0 : mx / (sum / static_cast<double>(n));
}

void AddLayerMetrics(const ClosedRun& traced, const SpanBuffer& driver,
                     size_t n, Report* rep) {
  Topology& topo = *traced.topo;
  TracingEngine& tracer = *topo.tracer();
  ajoin::ThreadEngine& engine = tracer.inner();
  const int num_tasks = static_cast<int>(tracer.num_tasks());
  const auto tuples = static_cast<double>(n);

  LayerTotals layer[kNumLayers];
  std::vector<double> joiner_cpu, worker_cpu;
  uint64_t spans_dropped = driver.dropped();
  for (int id = 0; id < num_tasks; ++id) {
    const SpanBuffer& b = tracer.buffer(id);
    for (int l = 0; l < kNumLayers; ++l) {
      layer[l].Add(b.totals(static_cast<Layer>(l)));
    }
    const LayerTotals& j = b.totals(Layer::kJoiner);
    const LayerTotals& m = b.totals(Layer::kMigration);
    if (std::strcmp(tracer.role_name(id), "joiner") == 0) {
      joiner_cpu.push_back(static_cast<double>(j.cpu_ns + m.cpu_ns));
    }
    const LayerTotals& aw = b.totals(Layer::kAggWorker);
    if (aw.calls > 0) worker_cpu.push_back(static_cast<double>(aw.cpu_ns));
    spans_dropped += b.dropped();
  }
  auto L = [&](Layer l) -> const LayerTotals& {
    return layer[static_cast<int>(l)];
  };
  auto cpu_s = [&](Layer l) { return Seconds(L(l).cpu_ns); };
  auto blocked_s = [&](Layer l) {
    return Seconds(L(l).wall_ns - std::min(L(l).wall_ns, L(l).cpu_ns));
  };

  // ingress
  const LayerTotals& drv = driver.totals(Layer::kDriver);
  const std::vector<ajoin::EdgeStatsSnapshot> edges = engine.edge_stats();
  uint64_t ingress_wait_ns = 0;
  uint32_t ring_peak = 0;
  for (const ajoin::EdgeStatsSnapshot& e : edges) {
    if (e.producer >= num_tasks) ingress_wait_ns += e.credit_wait_ns;
    ring_peak = std::max(ring_peak, e.ring_peak);
  }
  rep->Add("ingress.push_ns_per_tuple",
           Ratio(static_cast<double>(traced.push_wall_ns), tuples), "ns");
  rep->Add("ingress.credit_wait_s", Seconds(ingress_wait_ns), "s");

  // exchange
  const ajoin::ExchangeStatsSnapshot ex = engine.exchange_stats();
  rep->Add("exchange.batches", static_cast<double>(ex.batches), "count");
  rep->Add("exchange.avg_batch_fill", ex.avg_batch_fill, "envelopes");
  rep->Add("exchange.credit_waits", static_cast<double>(ex.credit_waits),
           "count");
  rep->Add("exchange.credit_wait_s", Seconds(ex.credit_wait_ns), "s");
  rep->Add("exchange.overflow_batches",
           static_cast<double>(ex.overflow_batches), "count");
  rep->Add("exchange.ring_peak_max", ring_peak, "batches");

  // runtime
  double in_call_cpu = Seconds(drv.cpu_ns);
  for (int l = 0; l < kNumLayers; ++l) in_call_cpu += Seconds(layer[l].cpu_ns);
  rep->Add("runtime.cpu_cores", Ratio(traced.usage.cpu_s, traced.wall_s),
           "cores");
  rep->Add("runtime.unattributed_cpu_s",
           std::max(0.0, traced.usage.cpu_s - in_call_cpu), "s");
  rep->Add("runtime.ctx_switches_invol", traced.usage.invol, "count");
  rep->Add("runtime.ctx_switches_vol", traced.usage.vol, "count");
  rep->Add("runtime.threads", static_cast<double>(traced.threads), "count");

  // reshuffler
  ajoin::JoinOperator& op = topo.join();
  uint64_t routed = 0, sent = 0;
  for (uint32_t r = 0; r < op.num_reshufflers(); ++r) {
    routed += op.reshuffler(r).metrics().routed_tuples;
    sent += op.reshuffler(r).metrics().sent_msgs;
  }
  rep->Add("reshuffler.cpu_s", cpu_s(Layer::kReshuffler), "s");
  rep->Add("reshuffler.cpu_ns_per_tuple",
           Ratio(static_cast<double>(L(Layer::kReshuffler).cpu_ns), tuples),
           "ns");
  rep->Add("reshuffler.blocked_s", blocked_s(Layer::kReshuffler), "s");
  rep->Add("reshuffler.fanout",
           Ratio(static_cast<double>(sent), static_cast<double>(routed)),
           "ratio");

  // controller
  const ajoin::ControllerCore* ctrl = op.controller();
  rep->Add("controller.migrations",
           ctrl != nullptr ? static_cast<double>(ctrl->log().size()) : 0,
           "count");
  rep->Add("controller.cpu_s", cpu_s(Layer::kController), "s");

  // joiner + migration
  uint64_t candidates = 0, outputs = 0, moved = 0, moved_bytes = 0,
           discarded = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    const ajoin::JoinerMetrics& m = op.joiner(i).metrics();
    candidates += m.probe_candidates;
    outputs += m.output_tuples;
    moved += m.mig_out_tuples;
    moved_bytes += m.mig_out_bytes;
    discarded += m.discarded_tuples;
  }
  constexpr double kMb = 1024.0 * 1024.0;
  rep->Add("joiner.cpu_s", cpu_s(Layer::kJoiner), "s");
  rep->Add("joiner.cpu_ns_per_tuple",
           Ratio(static_cast<double>(L(Layer::kJoiner).cpu_ns), tuples), "ns");
  rep->Add("joiner.cpu_imbalance", Imbalance(joiner_cpu), "ratio");
  rep->Add("joiner.blocked_s", blocked_s(Layer::kJoiner), "s");
  rep->Add("joiner.probe_candidates", static_cast<double>(candidates),
           "count");
  rep->Add("joiner.match_ratio",
           Ratio(static_cast<double>(outputs), static_cast<double>(candidates)),
           "ratio");
  rep->Add("joiner.ilf_mb", static_cast<double>(op.MaxInBytes()) / kMb, "MB");
  rep->Add("joiner.stored_mb",
           static_cast<double>(op.TotalStoredBytes()) / kMb, "MB");
  rep->Add("migration.cpu_s", cpu_s(Layer::kMigration), "s");
  rep->Add("migration.tuples_moved", static_cast<double>(moved), "count");
  rep->Add("migration.mb_moved", static_cast<double>(moved_bytes) / kMb, "MB");
  rep->Add("migration.discarded_tuples", static_cast<double>(discarded),
           "count");

  // egress (closed-loop part; the latency tails come from the open loop)
  const double results = static_cast<double>(topo.sink().results());
  rep->Add("egress.results", results, "count");
  rep->Add("egress.sink_cpu_ns_per_result",
           Ratio(static_cast<double>(L(Layer::kSink).cpu_ns), results), "ns");

  // agg
  ajoin::AggOperator* agg = topo.agg();
  double rebalances = 0, cells = 0, groups = 0, merged = 0;
  if (agg != nullptr) {
    rebalances = static_cast<double>(agg->router(0).rebalances());
    for (uint32_t i = 0; i < agg->num_workers(); ++i) {
      cells += static_cast<double>(agg->worker(i).mig_out_cells());
      groups += static_cast<double>(agg->worker(i).table().size());
      merged += static_cast<double>(agg->worker(i).in_tuples());
    }
  }
  rep->Add("agg.router_cpu_s", cpu_s(Layer::kAggRouter), "s");
  rep->Add("agg.worker_cpu_s", cpu_s(Layer::kAggWorker), "s");
  rep->Add("agg.worker_cpu_ns_per_tuple",
           Ratio(static_cast<double>(L(Layer::kAggWorker).cpu_ns), merged),
           "ns");
  rep->Add("agg.worker_imbalance", Imbalance(worker_cpu), "ratio");
  rep->Add("agg.rebalances", rebalances, "count");
  rep->Add("agg.cells_migrated", cells, "count");
  rep->Add("agg.groups", groups, "count");
  rep->Add("trace.spans_dropped", static_cast<double>(spans_dropped),
           "count");
}

bool WriteSpans(const std::string& path, const ClosedRun& traced,
                const SpanBuffer& driver) {
  TracingEngine& tracer = *traced.topo->tracer();
  std::vector<const SpanBuffer*> buffers;
  std::vector<std::string> names;
  for (int id = 0; id < static_cast<int>(tracer.num_tasks()); ++id) {
    buffers.push_back(&tracer.buffer(id));
    names.push_back(std::string(tracer.role_name(id)) + " " +
                    std::to_string(id));
  }
  buffers.push_back(&driver);
  names.push_back("driver");
  return WriteChromeTrace(path, buffers, names);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1;
  std::string out = ".";
};

[[noreturn]] void BadUsage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale F] [--out DIR]\nworkloads:",
               msg);
  for (const WorkloadDef& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) BadUsage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) BadUsage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      o.scale = std::strtod(v, &end);
    } else if (flag == "--out") {
      o.out = v;
    } else {
      BadUsage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      BadUsage(("bad value for " + flag).c_str());
    }
  }
  if (FindWorkload(o.workload) == nullptr) BadUsage("unknown --workload");
  if (!(o.seconds > 0 && o.seconds <= 3600)) BadUsage("--seconds out of range");
  if (!(o.scale > 0 && o.scale <= 4)) BadUsage("--scale out of range");
  return o;
}

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  const WorkloadDef& w = *FindWorkload(opt.workload);
  const auto n = static_cast<uint64_t>(
      std::max(1000.0, std::round(static_cast<double>(w.tuples) * opt.scale)));
  const bool groupby = w.id == WorkloadId::kJoinGroupby;

  // Input generation and expected outputs: excluded from every timing.
  const Stream stream = Generate(w, n, opt.seed);
  const Expected full = ExpectedOutput(stream, n, groupby);
  const Expected one = ExpectedOutput(stream, 1, groupby);
  Tally tally;
  Report rep;
  // join_groupby has no open loop (its aggregates appear only at the
  // flush), so its closed loop takes the whole budget.
  const bool open_loop = w.rate > 0;
  const double closed_seconds =
      open_loop ? kClosedShare * opt.seconds : opt.seconds;
  const double open_seconds = opt.seconds - closed_seconds;

  std::string spans_path;
  if (!opt.trace) {
    // Set-up reps are spread over the whole run, a few before every rep
    // and replay, so a slow spell of the host cannot claim all of them. The
    // first after each rep process only warms this process back up (its
    // pages were write-protected by the fork) and is not counted.
    std::vector<double> setups;
    auto setup_reps = [&] {
      RunSetupOnly(w, stream, one, &tally);
      for (int i = 0; i < kSetupRepsPerRep; ++i) {
        setups.push_back(RunSetupOnly(w, stream, one, &tally));
      }
    };
    // The open loop goes first: the closed loop saturates every core, which
    // would leave the host slow to wake threads (see RunOpenReps).
    OpenSummary open;
    if (open_loop) {
      open = RunOpenReps(w, stream, open_seconds, &tally, setup_reps);
    }
    std::vector<double> tps, flush_us, rss;
    Repeat(closed_seconds, [&] {
      setup_reps();
      rss.push_back(0);
      const ClosedRep r = RunClosedRep(w, stream, full, &rss.back());
      tally.Add(r.tally);
      tps.push_back(r.tps);
      flush_us.push_back(r.flush_us);
    });
    std::fprintf(stderr, "%zu closed-loop reps, %zu open-loop replays, "
                 "%zu set-up reps\n", tps.size(), open.replays, setups.size());
    rep.Add("throughput_tps", Median(tps), "tuples/s");
    rep.Add("latency_p50_us",
            open_loop ? open.latency.QuantileUs(0.5) : Median(flush_us), "us");
    rep.Add("setup_s", Median(setups), "s");
    rep.Add("peak_rss_mb", Median(rss), "MB");
  } else {
    OpenSummary open;
    if (open_loop) open = RunOpenReps(w, stream, open_seconds, &tally, [] {});
    rep.Add("ingress.gen_lag_ms_max", open.gen_lag_ms_max, "ms");
    rep.Add("egress.latency_p90_us", open.latency.QuantileUs(0.90), "us");
    rep.Add("egress.latency_p99_us", open.latency.QuantileUs(0.99), "us");
    rep.Add("egress.latency_p999_us", open.latency.QuantileUs(0.999), "us");
    rep.Add("egress.latency_samples",
            static_cast<double>(open.latency.count()), "count");
    rep.Add("egress.late_frac_10ms", open.latency.late_fraction(), "ratio");

    // Untraced and traced closed-loop reps alternate in this process
    // (U T U T U), so both sides share its history; the per-layer metrics
    // and spans come from the second traced rep.
    std::vector<double> untraced, traced_tps;
    for (int i = 0; i < 2; ++i) {
      untraced.push_back(
          RunClosed(w, stream, full, EngineKind::kThreads, &tally).tps);
      SpanBuffer driver;
      const ClosedRun traced =
          RunClosed(w, stream, full, EngineKind::kTraced, &tally, &driver);
      traced_tps.push_back(traced.tps);
      if (i == 0) continue;
      AddLayerMetrics(traced, driver, n, &rep);
      spans_path = opt.out + "/spans_" + w.name + "_seed" +
                   std::to_string(opt.seed) + ".json";
      if (!WriteSpans(spans_path, traced, driver)) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
        return 2;
      }
    }
    untraced.push_back(
        RunClosed(w, stream, full, EngineKind::kThreads, &tally).tps);
    const double untraced_tps = Median(untraced);
    rep.Add("trace.overhead", Ratio(Median(traced_tps), untraced_tps),
            "ratio");

    const ClosedRun sim =
        RunClosed(w, stream, full, EngineKind::kSim, &tally);
    rep.Add("runtime.single_thread_tps", sim.tps, "tuples/s");
    rep.Add("runtime.parallel_speedup", Ratio(untraced_tps, sim.tps), "ratio");
  }

  const double error_rate =
      Ratio(static_cast<double>(tally.failed),
            static_cast<double>(tally.attempted));
  for (const Metric& m : rep.metrics()) {
    std::printf("%s.%s %.17g %s\n", w.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s.error_rate %.17g ratio\n", w.name, error_rate);
  if (!spans_path.empty()) std::printf("spans: %s\n", spans_path.c_str());

  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
  const std::string line =
      std::string(head) + "\"metrics\": " + rep.MetricsJson() + "}";

  const std::string json_path = opt.out + "/" + w.name + "_seed" +
                                std::to_string(opt.seed) +
                                (opt.trace ? "_trace" : "") + ".json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, "
                 "\"tuples\": %llu, \"error_rate\": %.17g, "
                 "\"hardware_threads\": %u, \"compiler\": \"%s\",\n"
                 " \"result\": %s}\n",
                 w.name, static_cast<unsigned long long>(opt.seed),
                 opt.trace ? "true" : "false",
                 static_cast<unsigned long long>(n), error_rate,
                 std::thread::hardware_concurrency(), __VERSION__,
                 line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
