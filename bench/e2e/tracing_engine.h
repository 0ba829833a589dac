// TracingEngine: an Engine decorator for the end-to-end benchmark's traced
// run. It wraps every Task at AddTask in a TracedTask that times each
// OnBatch/OnMessage call in wall time and in CLOCK_THREAD_CPUTIME_ID time,
// charging the call to a layer picked from the task's role and the first
// message type of the dispatch. task(id) returns the *inner* task, so the
// operator facades' static downcasts (JoinOperator::joiner, AggOperator::
// worker, RouteResultsTo) keep working unchanged.
//
// Every call lands in its task's per-layer totals; the first kMaxSpans calls
// per task are also kept as spans and written at exit as Chrome trace-event
// JSON (chrome://tracing, Perfetto). Buffers are written only by the owning
// task's worker thread and read after WaitQuiescent, whose in-flight
// counter orders every dispatch before the read.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/message.h"
#include "src/runtime/thread_engine.h"

namespace e2e {

/// Where a dispatch's time is charged. Reshuffler-0 control dispatches are
/// the controller's (Alg. 1/2 decisions, acks, EOS); joiner dispatches that
/// start with a migration-protocol message (signal, migrated state, MigEnd)
/// are migration's. kDriver marks the benchmark's own Push/drain spans.
enum class Layer : uint8_t {
  kReshuffler,
  kController,
  kJoiner,
  kMigration,
  kAggRouter,
  kAggWorker,
  kSink,
  kDriver,
};
constexpr int kNumLayers = 8;

const char* LayerName(Layer layer);

/// Monotonic wall clock and calling-thread CPU clock, in nanoseconds.
uint64_t WallNs();
uint64_t ThreadCpuNs();

/// Summed cost of the calls charged to one layer.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;

  void Add(const LayerTotals& other) {
    calls += other.calls;
    wall_ns += other.wall_ns;
    cpu_ns += other.cpu_ns;
  }
};

/// One timed call.
struct Span {
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint32_t envelopes = 0;
  Layer layer = Layer::kDriver;
  ajoin::MsgType type = ajoin::MsgType::kInput;
};

/// Single-writer span sink: totals for every call, spans for the first
/// kMaxSpans (later ones are counted in `dropped`).
class SpanBuffer {
 public:
  static constexpr size_t kMaxSpans = size_t{1} << 16;

  void Record(const Span& span);

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  LayerTotals totals_[kNumLayers];
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

class TracedTask;

/// Decorates a ThreadEngine it owns; see the file comment.
class TracingEngine : public ajoin::Engine {
 public:
  TracingEngine() = default;
  TracingEngine(const TracingEngine&) = delete;
  TracingEngine& operator=(const TracingEngine&) = delete;

  int AddTask(std::unique_ptr<ajoin::Task> task) override;
  void Start() override { inner_.Start(); }
  std::unique_ptr<ajoin::IngressPort> OpenIngress(int to) override {
    return inner_.OpenIngress(to);
  }
  size_t num_tasks() const override { return inner_.num_tasks(); }
  void WaitQuiescent() override { inner_.WaitQuiescent(); }
  void Shutdown() override { inner_.Shutdown(); }
  /// The undecorated task, so facade downcasts see their own type.
  ajoin::Task* task(int id) override;
  void ActivateTask(int id) override { inner_.ActivateTask(id); }
  uint64_t NowMicros() const override { return inner_.NowMicros(); }

  ajoin::ThreadEngine& inner() { return inner_; }
  /// Task `id`'s span buffer (engine must be quiescent).
  const SpanBuffer& buffer(int id) const;
  /// Role name of task `id` ("joiner", "reshuffler", ...).
  const char* role_name(int id) const;

 private:
  ajoin::ThreadEngine inner_;
  std::vector<TracedTask*> traced_;  // owned by inner_, indexed by task id
};

/// Writes `buffers` (tid = index; the last one is the driver) as a Chrome
/// trace-event JSON file. Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers,
                      const std::vector<std::string>& thread_names);

}  // namespace e2e
