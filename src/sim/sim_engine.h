// Deterministic single-threaded engine: a global FIFO event queue with
// run-to-completion semantics. Messages posted while processing are appended
// and processed in order, so every task observes arrivals in a single global
// order — the in-process equivalent of the paper's serial block-leader
// forwarding that keeps multi-group deliveries consistent (section 4.2.2).
//
// Each queue item is one send unit, dispatched with one Task::OnBatch call,
// the same entry point the threaded engine uses: a Send or Post is a
// one-envelope batch, a SendBatch or PostBatch data run is one batch. So the
// simulator runs the batch code the threaded engine runs, in a replayable
// order.

#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/runtime/task.h"

namespace ajoin {

class SimEngine : public Engine {
 public:
  SimEngine() = default;

  int AddTask(std::unique_ptr<Task> task) override {
    tasks_.push_back(std::move(task));
    return static_cast<int>(tasks_.size()) - 1;
  }

  void Start() override {}

  /// Deterministic ingress port: Post enqueues one envelope onto the global
  /// FIFO queue, PostBatch enqueues a data batch as one unit (one OnBatch
  /// dispatch) and a batch holding control one unit per envelope, Flush is
  /// a no-op (nothing is ever buffered). May be opened at any time; any
  /// number of ports.
  std::unique_ptr<IngressPort> OpenIngress(int to) override;

  /// Registered task count (the next id AddTask assigns).
  size_t num_tasks() const override { return tasks_.size(); }

  /// Drains the queue to empty, dispatching each send unit through
  /// Task::OnBatch in FIFO order.
  void WaitQuiescent() override;

  /// Marks the engine shut down: subsequent Post/PostBatch on any port
  /// reject (return false). Messages accepted earlier still drain at the
  /// next WaitQuiescent, mirroring the threaded engine.
  void Shutdown() override { shut_down_ = true; }

  Task* task(int id) override { return tasks_[static_cast<size_t>(id)].get(); }

  /// Logical clock: envelopes dispatched before the current send unit.
  uint64_t NowMicros() const override { return logical_time_; }

  /// Total envelopes dispatched (deterministic; used by tests).
  uint64_t dispatched() const { return dispatched_; }

 private:
  class SimContext;
  class SimPort;

  /// One send unit bound for task `to`.
  struct Item {
    int to;
    TupleBatch batch;
  };

  /// Appends a one-envelope send unit.
  void Enqueue(int to, Envelope&& msg) {
    queue_.push_back(Item{to, TupleBatch(std::move(msg))});
  }

  std::vector<std::unique_ptr<Task>> tasks_;
  std::deque<Item> queue_;
  uint64_t logical_time_ = 0;
  uint64_t dispatched_ = 0;
  bool draining_ = false;
  bool shut_down_ = false;
};

}  // namespace ajoin
