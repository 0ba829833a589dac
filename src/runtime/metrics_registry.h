// The live telemetry plane (paper §4: the controller only works because it
// can *observe* the operator). Two pieces here; the reader is ControlLoop
// (src/core/control_loop.h), which samples the registry into a time series
// and feeds the scale/shed policies:
//
//  * SeqlockCell / TaskTelemetry — a per-task snapshot cell holding one
//    record of the task's kind (src/runtime/metrics.h). The owning task
//    bumps its record with plain stores (no atomics on the hot path) and,
//    once per dispatch, publishes it whole into the cell (Publish<T>: one
//    memcpy into the cell's words); any thread can then read a consistent,
//    torn-read-free copy mid-stream (Read<T>). No lock anywhere, no
//    quiescent drain.
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
#include <cstring>
#include <deque>
#include <mutex>
#include <type_traits>
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

/// What kind of task a registry entry describes, and so which record its
/// cell holds: JoinerSnapshot for joiners, ReshufflerMetrics for the routing
/// tasks (reshufflers and agg routers), AggSnapshot for agg workers.
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

/// One task's entry in a registry snapshot: the record of its kind, selected
/// by `kind` (the other two stay default-constructed).
struct TaskSnapshot {
  int task = -1;
  TaskKind kind = TaskKind::kJoiner;
  JoinerSnapshot joiner;
  ReshufflerMetrics reshuffler;
  AggSnapshot agg;
};

/// Per-task snapshot cell holding one record of the task's kind
/// (src/runtime/metrics.h). The owning task publishes after processing a
/// message/batch; any thread reads via the registry.
class TaskTelemetry {
 public:
  /// Payload width in words: the widest record, the joiner's (Publish and
  /// Read check at compile time that a record fits).
  static constexpr size_t kWords = sizeof(JoinerSnapshot) / sizeof(uint64_t);

  /// Publishes `record` whole: one seqlock publish of its bytes. Call from
  /// the owning task's thread only; wait-free.
  template <typename T>
  void Publish(const T& record) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      sizeof(T) <= sizeof(uint64_t) * kWords,
                  "a telemetry record is copied as bytes into the cell");
    uint64_t w[kWords] = {};
    std::memcpy(w, &record, sizeof(T));
    cell_.Publish(w);
  }

  /// Reads a consistent copy of the last published record. `T` must be the
  /// type the owner publishes (the registry picks it by TaskKind). Callable
  /// from any thread; lock-free.
  template <typename T>
  T Read() const {
    static_assert(std::is_trivially_copyable_v<T> &&
                      sizeof(T) <= sizeof(uint64_t) * kWords,
                  "a telemetry record is copied as bytes into the cell");
    uint64_t w[kWords];
    cell_.Read(w);
    T record;
    std::memcpy(&record, w, sizeof(T));
    return record;
  }

  /// Publishes a joiner record built from its counters plus epoch /
  /// migration / participation / shedding state. `active` is whether the
  /// joiner is inside its group's live grid — elastic scaling flips it at
  /// activation/retirement so exports can tombstone retired slots instead
  /// of dropping their counters. `shed_rate_ppm` is the admitted probe
  /// fraction in parts-per-million (kShedExactPpm = exact probing). Call
  /// from the owning task's thread only.
  void PublishJoiner(const JoinerMetrics& m, uint32_t epoch, bool migrating,
                     bool active, uint32_t shed_rate_ppm = kShedExactPpm) {
    JoinerSnapshot s;
    static_cast<JoinerMetrics&>(s) = m;
    s.shed_rate_ppm = shed_rate_ppm;
    s.epoch = epoch;
    s.migrating = migrating;
    s.active = active;
    Publish(s);
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
  /// A joiner cell is seeded with a default JoinerSnapshot (exact probing,
  /// inactive) before Register returns, so it reads sensibly before the
  /// joiner's first publish; the other kinds' default records are
  /// all-zero, as a fresh cell is.
  TaskTelemetry* Register(int task_id, TaskKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.emplace_back(task_id, kind);
    TaskTelemetry* cell = &slots_.back().cell;
    if (kind == TaskKind::kJoiner) cell->Publish(JoinerSnapshot{});
    return cell;
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
        snap.joiner = slot.cell.Read<JoinerSnapshot>();
      } else if (slot.kind == TaskKind::kAgg) {
        snap.agg = slot.cell.Read<AggSnapshot>();
      } else {
        snap.reshuffler = slot.cell.Read<ReshufflerMetrics>();
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
