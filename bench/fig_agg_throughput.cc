// Streaming group-by/aggregate throughput: the partitioned AggOperator
// (routers + accumulator workers on the adaptive substrate, threaded
// exchange plane) vs two ends of the design space, across Zipf key skew:
//
//  * `reference` — the single-threaded ReferenceAggregator (ordered map),
//    the differential baseline the tests pin the operator against;
//  * `shared_atomic` — the classic shared-table strawman: T threads
//    hammering one lock-free open-addressing table with CAS key claims and
//    atomic accumulates. No partitioning, so every hot key is a cache-line
//    contention point — exactly the failure mode content-sensitive
//    partitioning avoids (hot keys are partitioned to ONE owner, and skew
//    is handled by reassigning whole partitions, not by contending).
//
// Two measurement axes:
//
//  * `wall` rows are wall-clock on the threaded exchange plane — honest
//    end-to-end numbers for THIS host, including its core count (a 1-core
//    CI box cannot show thread scaling, and these rows don't pretend to).
//  * `modeled` rows run the operator on the deterministic SimEngine and
//    charge each worker's counters against the repo's cost model
//    (sec_per_in_tuple for merges, sec_per_mig_tuple for migrated cells —
//    the same accounting the fig7/fig8 paper figures use): parallel
//    execution time is the max busy time over workers, so the skewed axis
//    (z = 1.1) shows exactly what adaptive repartitioning buys — balanced
//    worker loads and near-linear scaling where a frozen round-robin
//    assignment bottlenecks on the owner of the head partitions.
//
// Acceptance: modeled adaptive W=8 >= 4x modeled W=1 at z = 1.1 (scaling
// must survive skew, migration costs included). The line prints OK or BELOW
// and the target goes into the JSON meta as required_modeled_scaling_skew;
// the exit code does not depend on it. Emits BENCH_agg_throughput.json.
// `--smoke` shrinks sizes for CI.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "reference/aggregator.h"
#include "src/common/random.h"
#include "src/common/stopwatch.h"
#include "src/core/agg.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

using namespace ajoin;
using bench::JsonResult;

namespace {

/// Value derived from the key (small exact integers, like the tests) so
/// SUM/MIN/MAX do real work in every engine.
int64_t ValueOf(int64_t key) { return 8 + 4 * (key % 7); }

std::vector<int64_t> MakeKeys(uint64_t n, uint64_t domain, double z,
                              uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(domain, z);
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<int64_t>(zipf.Sample(rng)));
  }
  return keys;
}

struct AggRunStats {
  double tuples_per_sec = 0;
  uint64_t groups = 0;
  uint64_t migrations = 0;
};

AggRunStats RunReference(const std::vector<int64_t>& keys) {
  ReferenceAggregator ref;
  Stopwatch clock;
  for (int64_t key : keys) ref.Add(key, 1.0, ValueOf(key));
  const double secs = clock.ElapsedSeconds();
  AggRunStats r;
  r.tuples_per_sec = static_cast<double>(keys.size()) / secs;
  r.groups = ref.size();
  return r;
}

// ---- shared_atomic strawman -------------------------------------------------

/// One slot of the shared lock-free table: CAS-claimed key, integer
/// accumulates (weight is 1.0 here, so COUNT/SUM stay exact in int64 —
/// cheaper than the CAS-double loops a weighted version needs, which only
/// biases the comparison IN FAVOR of the strawman).
struct alignas(64) SharedSlot {
  std::atomic<int64_t> key{kEmpty};
  std::atomic<uint64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max{std::numeric_limits<int64_t>::min()};
  static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();
};

class SharedAtomicTable {
 public:
  explicit SharedAtomicTable(size_t capacity_pow2)
      : mask_(capacity_pow2 - 1), slots_(capacity_pow2) {}

  void Merge(int64_t key, int64_t value) {
    size_t at = SplitMix64(static_cast<uint64_t>(key)) & mask_;
    while (true) {
      SharedSlot& slot = slots_[at];
      int64_t cur = slot.key.load(std::memory_order_acquire);
      if (cur == key) break;
      if (cur == SharedSlot::kEmpty &&
          slot.key.compare_exchange_strong(cur, key,
                                           std::memory_order_acq_rel)) {
        break;
      }
      if (cur == key) break;  // CAS lost to the same key
      at = (at + 1) & mask_;
    }
    SharedSlot& slot = slots_[at];
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(value, std::memory_order_relaxed);
    int64_t seen = slot.min.load(std::memory_order_relaxed);
    while (value < seen &&
           !slot.min.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
    }
    seen = slot.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.max.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
    }
  }

  uint64_t groups() const {
    uint64_t n = 0;
    for (const SharedSlot& slot : slots_) {
      if (slot.key.load(std::memory_order_relaxed) != SharedSlot::kEmpty) ++n;
    }
    return n;
  }

 private:
  size_t mask_;
  std::vector<SharedSlot> slots_;
};

AggRunStats RunSharedAtomic(const std::vector<int64_t>& keys, uint32_t threads,
                          size_t capacity) {
  SharedAtomicTable table(capacity);
  std::vector<std::thread> pool;
  Stopwatch clock;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&keys, &table, t, threads] {
      const size_t n = keys.size();
      for (size_t i = t; i < n; i += threads) {
        table.Merge(keys[i], ValueOf(keys[i]));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const double secs = clock.ElapsedSeconds();
  AggRunStats r;
  r.tuples_per_sec = static_cast<double>(keys.size()) / secs;
  r.groups = table.groups();
  return r;
}

// ---- partitioned AggOperator ------------------------------------------------

/// Parallel ingestion mirroring the operator's real deployment: in a
/// cascade, N upstream joiner slots feed the stage's routers concurrently
/// (Dataflow::Connect), so the bench drives one feeder thread per router,
/// each with its own IngressPort (per-port FIFO orders its kEos after its
/// data). A single-producer facade Push would measure the driver, not the
/// stage.
AggRunStats RunPartitioned(const std::vector<int64_t>& keys, uint32_t workers) {
  constexpr size_t kFeedBatch = 512;
  ThreadEngine engine{ExchangeConfig{}};
  AggConfig cfg;
  cfg.machines = workers;
  cfg.partitions = 256;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 4096;
  cfg.check_every = 4096;
  AggOperator op(engine, cfg);
  engine.Start();
  const uint32_t routers = op.num_routers();
  const std::vector<int>& router_ids = op.router_ids();
  Stopwatch clock;
  std::vector<std::thread> feeders;
  for (uint32_t f = 0; f < routers; ++f) {
    feeders.emplace_back([&keys, &engine, &router_ids, f, routers] {
      std::unique_ptr<IngressPort> port = engine.OpenIngress(router_ids[f]);
      const size_t n = keys.size();
      uint64_t seq = static_cast<uint64_t>(f) << 40;  // disjoint seq bands
      TupleBatch batch;
      for (size_t i = f; i < n; i += routers) {
        batch.Add(MakeInput(Rel::kS, keys[i],
                            static_cast<uint32_t>(ValueOf(keys[i])), seq++));
        if (batch.size() >= kFeedBatch) port->PostBatch(std::move(batch));
      }
      if (!batch.empty()) port->PostBatch(std::move(batch));
      Envelope eos;
      eos.type = MsgType::kEos;
      port->Post(std::move(eos));
      port->Flush();
    });
  }
  for (std::thread& th : feeders) th.join();
  engine.WaitQuiescent();
  const double secs = clock.ElapsedSeconds();
  AggRunStats r;
  r.tuples_per_sec = static_cast<double>(keys.size()) / secs;
  r.groups = op.Collect().size();
  r.migrations = op.TotalMigrations();
  engine.Shutdown();
  return r;
}

// ---- modeled axis: SimEngine run + cost-model accounting --------------------

/// Runs the operator on the deterministic SimEngine and converts per-worker
/// counters into modeled parallel throughput: busy(w) = merges(w) *
/// sec_per_in_tuple + migrated_cells(w) * sec_per_mig_tuple, execution time
/// = max over workers (the TimeAccumulator rule the paper figures use).
AggRunStats RunModeled(const std::vector<int64_t>& keys, uint32_t workers,
                       bool adaptive) {
  const CostModel cost = bench::DefaultCost();
  SimEngine engine;
  AggConfig cfg;
  cfg.machines = workers;
  cfg.partitions = 256;
  cfg.adaptive = adaptive;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 4096;
  cfg.check_every = 4096;
  AggOperator op(engine, cfg);
  engine.Start();
  StreamTuple t;
  t.rel = Rel::kS;
  uint64_t since_drain = 0;
  for (int64_t key : keys) {
    t.key = key;
    t.bytes = static_cast<uint32_t>(ValueOf(key));
    op.Push(t);
    // Drain periodically: keeps the sim queues bounded and lets the
    // controller's rebalances interleave with the stream.
    if (++since_drain >= 16384) {
      op.FlushInput();
      engine.WaitQuiescent();
      since_drain = 0;
    }
  }
  op.SendEos();
  engine.WaitQuiescent();
  double max_busy = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    const AggWorkerCore& worker = op.worker(w);
    const double busy =
        static_cast<double>(worker.in_tuples()) * cost.sec_per_in_tuple +
        static_cast<double>(worker.mig_in_cells() + worker.mig_out_cells()) *
            cost.sec_per_mig_tuple;
    if (busy > max_busy) max_busy = busy;
  }
  AggRunStats r;
  r.tuples_per_sec =
      max_busy > 0 ? static_cast<double>(keys.size()) / max_busy : 0;
  r.groups = op.Collect().size();
  r.migrations = op.TotalMigrations();
  engine.Shutdown();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint64_t n = smoke ? 200000 : 2000000;
  const uint64_t domain = 1 << 16;
  const uint32_t kStrawmanThreads = 8;
  const std::vector<uint32_t> worker_counts =
      smoke ? std::vector<uint32_t>{1, 4} : std::vector<uint32_t>{1, 2, 4, 8};
  const std::vector<uint32_t> modeled_counts =
      smoke ? std::vector<uint32_t>{1, 8} : std::vector<uint32_t>{1, 2, 4, 8};

  const double kRequiredModeledScaling = 4.0;
  JsonResult out("agg_throughput");
  out.meta()
      .Add("unit", "tuples_per_sec")
      .Add("n", n)
      .Add("domain", domain)
      .Add("smoke", smoke)
      .Add("note",
           "streaming group-by COUNT/SUM/MIN/MAX over Zipf(z) keys; "
           "reference = single-threaded ordered-map baseline; shared_atomic "
           "= lock-free shared open-addressing table, 8 threads, CAS "
           "accumulates (integer fast path); partitioned_wall = AggOperator "
           "on the threaded batched exchange plane, one feeder per router, "
           "wall clock on this host; modeled_* = AggOperator on the "
           "deterministic SimEngine with cost-model accounting (busy = "
           "merges * sec_per_in_tuple + migrated cells * sec_per_mig_tuple, "
           "exec = max over workers) — the same modeling the fig7/fig8 "
           "paper figures use, so worker scaling is visible on any host")
      .Add("required_modeled_scaling_skew", kRequiredModeledScaling);

  bench::PrintHeader("Group-by throughput: engine x Zipf z");
  std::printf("%-6s %-16s %8s %14s %10s %6s\n", "z", "engine", "workers",
              "tuples/s", "groups", "migs");

  double modeled_w1_skew = 0, modeled_wmax_skew = 0, modeled_frozen_skew = 0;
  const double kSkewZ = 1.1;
  for (double z : {0.0, 0.8, kSkewZ}) {
    const auto keys = MakeKeys(n, domain, z, 4242);
    auto report = [&](const char* engine, uint32_t workers,
                      const AggRunStats& r) {
      std::printf("%-6.1f %-16s %8u %14.0f %10llu %6llu\n", z, engine,
                  workers, r.tuples_per_sec,
                  static_cast<unsigned long long>(r.groups),
                  static_cast<unsigned long long>(r.migrations));
      out.AddRow()
          .Add("zipf_z", z)
          .Add("engine", engine)
          .Add("workers", static_cast<uint64_t>(workers))
          .Add("tuples_per_sec", r.tuples_per_sec)
          .Add("groups", r.groups)
          .Add("migrations", r.migrations);
    };
    report("reference", 1, RunReference(keys));
    report("shared_atomic", kStrawmanThreads,
           RunSharedAtomic(keys, kStrawmanThreads, domain * 4));
    for (uint32_t workers : worker_counts) {
      report("partitioned_wall", workers, RunPartitioned(keys, workers));
    }
    for (uint32_t workers : modeled_counts) {
      const AggRunStats r = RunModeled(keys, workers, /*adaptive=*/true);
      report("modeled_adaptive", workers, r);
      if (z == kSkewZ) {
        if (workers == 1) modeled_w1_skew = r.tuples_per_sec;
        if (workers == modeled_counts.back()) {
          modeled_wmax_skew = r.tuples_per_sec;
        }
      }
    }
    const AggRunStats frozen =
        RunModeled(keys, modeled_counts.back(), /*adaptive=*/false);
    report("modeled_frozen", modeled_counts.back(), frozen);
    if (z == kSkewZ) modeled_frozen_skew = frozen.tuples_per_sec;
  }

  const double scaling =
      modeled_w1_skew > 0 ? modeled_wmax_skew / modeled_w1_skew : 0;
  const double vs_frozen =
      modeled_frozen_skew > 0 ? modeled_wmax_skew / modeled_frozen_skew : 0;
  std::printf(
      "\nacceptance: modeled adaptive W=%u vs W=1 at z=%.1f (skewed): "
      "%.2fx (>= %.0fx required) %s; adaptive vs frozen at W=%u: %.2fx\n",
      modeled_counts.back(), kSkewZ, scaling, kRequiredModeledScaling,
      bench::Verdict(scaling, kRequiredModeledScaling),
      modeled_counts.back(), vs_frozen);
  out.meta().Add("modeled_scaling_skew", scaling);
  out.meta().Add("modeled_adaptive_vs_frozen_skew", vs_frozen);
  out.Write();
  return 0;
}
