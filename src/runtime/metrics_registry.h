// The live telemetry plane (paper §4: the controller only works because it
// can *observe* the operator). Two pieces here; the reader is ControlLoop
// (src/core/control_loop.h), which samples the registry into a time series
// and feeds the scale/shed policies:
//
//  * SeqlockCell / TaskTelemetry — a per-task snapshot cell. The owning task
//    keeps bumping its plain JoinerMetrics/ReshufflerMetrics counters as
//    before (no atomics on the hot path) and periodically *publishes* them
//    into the cell; any thread can then read a consistent, torn-read-free
//    copy mid-stream. No lock anywhere, no quiescent drain.
//  * MetricsRegistry — the directory of every task's cell. Operators
//    register their tasks at construction; snapshotting walks the directory
//    and reads each cell.
//
// Seqlock protocol (TSan-clean): the payload is an array of atomic words so
// the sanitizer sees every access; the relaxed/fence dance below gives the
// same guarantees as the classic seqlock. Writer: seq -> odd (relaxed) ·
// release fence · relaxed payload stores · seq -> even (release). Reader:
// seq (acquire), retry if odd · relaxed payload loads · acquire fence ·
// seq (relaxed), retry if changed.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/check/sched.h"
#include "src/runtime/metrics.h"

namespace ajoin {

/// A single-writer, many-reader snapshot cell of N uint64 words.
template <size_t N>
class SeqlockCell {
 public:
  /// Publishes a new payload. Single writer (the owning task's thread);
  /// wait-free, two seq stores plus N relaxed word stores.
  void Publish(const uint64_t (&words)[N]) {
    const uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    mc::Fence(AJOIN_MC_ORDER(kSeqlockPublishRelaxedFence,
                             std::memory_order_release));
    for (size_t i = 0; i < N; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Reads a consistent payload, retrying while the writer is mid-publish.
  /// Callable from any thread; lock-free (bounded only by writer progress).
  void Read(uint64_t (&out)[N]) const {
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // writer in flight
      for (size_t i = 0; i < N; ++i) {
        out[i] = words_[i].load(std::memory_order_relaxed);
      }
      mc::Fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return;
    }
  }

 private:
  mc::Atomic<uint64_t> seq_{0};
  mc::Atomic<uint64_t> words_[N] = {};
};

/// What kind of task a registry entry describes. Agg routers reuse the
/// reshuffler counter set (they are routing tasks); agg workers get their
/// own accumulator-table layout.
enum class TaskKind { kJoiner, kReshuffler, kAgg };

/// Human-readable name of a task kind ("joiner" / "reshuffler" / "agg").
inline const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kJoiner: return "joiner";
    case TaskKind::kReshuffler: return "reshuffler";
    case TaskKind::kAgg: return "agg";
  }
  return "?";
}

/// Consistent copy of one joiner's counters plus its protocol state.
struct JoinerSnapshot {
  uint64_t in_tuples = 0;
  uint64_t in_bytes = 0;
  uint64_t probe_candidates = 0;
  uint64_t output_tuples = 0;
  uint64_t mig_out_tuples = 0;
  uint64_t mig_out_bytes = 0;
  uint64_t mig_in_tuples = 0;
  uint64_t mig_in_bytes = 0;
  uint64_t discarded_tuples = 0;
  uint64_t migrations_finalized = 0;
  uint64_t stored_tuples = 0;
  uint64_t stored_bytes = 0;
  uint64_t peak_stored_bytes = 0;
  uint64_t shed_probes_skipped = 0;  // probes skipped by load shedding
  uint32_t shed_rate_ppm = 1000000;  // admitted probe fraction (ppm; 1e6 =
                                     // exact, anything lower = shedding)
  uint32_t epoch = 0;            // partitioning epoch the joiner is in
  bool migrating = false;        // mid-migration right now?
  bool active = false;           // inside the group's live grid (elastic
                                 // scaling tombstones retirees in place)
};

/// Consistent copy of one reshuffler's counters.
struct ReshufflerSnapshot {
  uint64_t routed_tuples = 0;
  uint64_t sent_msgs = 0;
  uint64_t sent_bytes = 0;
  uint64_t epoch_changes = 0;
  uint64_t results_restamped = 0;
};

/// Consistent copy of one agg worker's accumulator-table counters plus its
/// protocol state (kAgg entries).
struct AggSnapshot {
  uint64_t in_tuples = 0;     // data tuples merged (excludes migrated cells)
  uint64_t in_bytes = 0;      // accounted bytes of those tuples
  uint64_t groups = 0;        // distinct group keys resident right now
  uint64_t table_bytes = 0;   // accumulator-table footprint (MemoryBytes)
  uint64_t mig_out_cells = 0;  // accumulator cells shipped to other workers
  uint64_t mig_in_cells = 0;   // accumulator cells absorbed from others
  uint64_t migrations_finalized = 0;
  uint64_t emitted_results = 0;  // kResult aggregates emitted downstream
  uint32_t epoch = 0;         // assignment epoch the worker is in
  bool migrating = false;     // mid-repartition right now?
  bool flushed = false;       // final aggregates emitted (stage drained)
};

/// One task's entry in a registry snapshot. Exactly one of joiner /
/// reshuffler is meaningful, selected by `kind`.
struct TaskSnapshot {
  int task = -1;
  TaskKind kind = TaskKind::kJoiner;
  JoinerSnapshot joiner;
  ReshufflerSnapshot reshuffler;
  AggSnapshot agg;
};

/// Per-task snapshot cell. The owning task publishes after processing a
/// message/batch; any thread reads via the registry.
class TaskTelemetry {
 public:
  /// Payload width in words (shared by both task kinds; the wider joiner
  /// layout sets the size).
  static constexpr size_t kWords = 18;

  /// Publishes a joiner's counters plus epoch / migration / participation /
  /// shedding state. `active` is whether the joiner is inside its group's
  /// live grid — elastic scaling flips it at activation/retirement so
  /// exports can tombstone retired slots instead of dropping their counters.
  /// `shed_rate_ppm` is the admitted probe fraction in parts-per-million
  /// (1e6 = exact probing). Call from the owning task's thread only.
  void PublishJoiner(const JoinerMetrics& m, uint32_t epoch, bool migrating,
                     bool active, uint32_t shed_rate_ppm = 1000000) {
    uint64_t w[kWords];
    w[0] = m.in_tuples;
    w[1] = m.in_bytes;
    w[2] = m.probe_candidates;
    w[3] = m.output_tuples;
    w[4] = m.mig_out_tuples;
    w[5] = m.mig_out_bytes;
    w[6] = m.mig_in_tuples;
    w[7] = m.mig_in_bytes;
    w[8] = m.discarded_tuples;
    w[9] = m.migrations_finalized;
    w[10] = m.stored_tuples;
    w[11] = m.stored_bytes;
    w[12] = m.peak_stored_bytes;
    w[13] = epoch;
    w[14] = migrating ? 1 : 0;
    w[15] = active ? 1 : 0;
    w[16] = m.shed_probes_skipped;
    w[17] = shed_rate_ppm;
    cell_.Publish(w);
  }

  /// Publishes a reshuffler's counters. Call from the owning task's thread
  /// only.
  void PublishReshuffler(const ReshufflerMetrics& m,
                         uint64_t results_restamped) {
    uint64_t w[kWords] = {};
    w[0] = m.routed_tuples;
    w[1] = m.sent_msgs;
    w[2] = m.sent_bytes;
    w[3] = m.epoch_changes;
    w[4] = results_restamped;
    cell_.Publish(w);
  }

  /// Decodes the cell as a joiner snapshot (meaningful only for kJoiner
  /// entries). Callable from any thread.
  JoinerSnapshot ReadJoiner() const {
    uint64_t w[kWords];
    cell_.Read(w);
    JoinerSnapshot s;
    s.in_tuples = w[0];
    s.in_bytes = w[1];
    s.probe_candidates = w[2];
    s.output_tuples = w[3];
    s.mig_out_tuples = w[4];
    s.mig_out_bytes = w[5];
    s.mig_in_tuples = w[6];
    s.mig_in_bytes = w[7];
    s.discarded_tuples = w[8];
    s.migrations_finalized = w[9];
    s.stored_tuples = w[10];
    s.stored_bytes = w[11];
    s.peak_stored_bytes = w[12];
    s.epoch = static_cast<uint32_t>(w[13]);
    s.migrating = w[14] != 0;
    s.active = w[15] != 0;
    s.shed_probes_skipped = w[16];
    // A never-published cell reads all-zero words; rate 0 is unreachable
    // (admission probabilities are clamped positive so HT weights stay
    // finite), so decode it as "exact" instead of "shedding everything".
    s.shed_rate_ppm =
        w[17] == 0 ? 1000000u : static_cast<uint32_t>(w[17]);
    return s;
  }

  /// Publishes an agg worker's accumulator counters plus epoch / migration /
  /// flush state. Call from the owning task's thread only.
  void PublishAgg(const AggSnapshot& s) {
    uint64_t w[kWords] = {};
    w[0] = s.in_tuples;
    w[1] = s.in_bytes;
    w[2] = s.groups;
    w[3] = s.table_bytes;
    w[4] = s.mig_out_cells;
    w[5] = s.mig_in_cells;
    w[6] = s.migrations_finalized;
    w[7] = s.emitted_results;
    w[8] = s.epoch;
    w[9] = s.migrating ? 1 : 0;
    w[10] = s.flushed ? 1 : 0;
    cell_.Publish(w);
  }

  /// Decodes the cell as an agg worker snapshot (meaningful only for kAgg
  /// entries). Callable from any thread.
  AggSnapshot ReadAgg() const {
    uint64_t w[kWords];
    cell_.Read(w);
    AggSnapshot s;
    s.in_tuples = w[0];
    s.in_bytes = w[1];
    s.groups = w[2];
    s.table_bytes = w[3];
    s.mig_out_cells = w[4];
    s.mig_in_cells = w[5];
    s.migrations_finalized = w[6];
    s.emitted_results = w[7];
    s.epoch = static_cast<uint32_t>(w[8]);
    s.migrating = w[9] != 0;
    s.flushed = w[10] != 0;
    return s;
  }

  /// Decodes the cell as a reshuffler snapshot (meaningful only for
  /// kReshuffler entries). Callable from any thread.
  ReshufflerSnapshot ReadReshuffler() const {
    uint64_t w[kWords];
    cell_.Read(w);
    ReshufflerSnapshot s;
    s.routed_tuples = w[0];
    s.sent_msgs = w[1];
    s.sent_bytes = w[2];
    s.epoch_changes = w[3];
    s.results_restamped = w[4];
    return s;
  }

 private:
  SeqlockCell<kWords> cell_;
};

/// Directory of every task's telemetry cell. Operators register their tasks
/// while being built; Snapshot() walks the directory from any thread.
class MetricsRegistry {
 public:
  /// Registers a task and returns its cell (stable address for the
  /// registry's lifetime; the task keeps the pointer and publishes into it).
  /// Thread-safe; typically called from operator constructors.
  TaskTelemetry* Register(int task_id, TaskKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.emplace_back(task_id, kind);
    return &slots_.back().cell;
  }

  /// Reads every registered task's cell into a consistent-per-task snapshot
  /// (cells are read independently; cross-task skew is one publish period).
  /// Callable from any thread while tasks keep publishing.
  std::vector<TaskSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TaskSnapshot> out;
    out.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      TaskSnapshot snap;
      snap.task = slot.task;
      snap.kind = slot.kind;
      if (slot.kind == TaskKind::kJoiner) {
        snap.joiner = slot.cell.ReadJoiner();
      } else if (slot.kind == TaskKind::kAgg) {
        snap.agg = slot.cell.ReadAgg();
      } else {
        snap.reshuffler = slot.cell.ReadReshuffler();
      }
      out.push_back(snap);
    }
    return out;
  }

  /// Number of registered tasks.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

 private:
  struct Slot {
    Slot(int task_in, TaskKind kind_in) : task(task_in), kind(kind_in) {}
    int task;
    TaskKind kind;
    TaskTelemetry cell;  // atomics: slots are neither copied nor moved
  };

  mutable std::mutex mu_;         // guards the deque structure, not the cells
  std::deque<Slot> slots_;        // deque: stable cell addresses on growth
};

}  // namespace ajoin
