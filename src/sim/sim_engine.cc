#include "src/sim/sim_engine.h"

#include <algorithm>

#include "src/common/status.h"

namespace ajoin {

class SimEngine::SimContext : public Context {
 public:
  SimContext(SimEngine* engine, int self) : engine_(engine), self_(self) {}

  int self() const override { return self_; }

  void Send(int to, Envelope msg) override {
    msg.from = self_;
    engine_->Enqueue(to, std::move(msg));
  }

  // The run stays one send unit, so the receiver gets it as one batch, as
  // it would from the threaded engine's exchange plane.
  void SendBatch(int to, TupleBatch&& run) override {
    for (Envelope& msg : run.items) {
      AJOIN_CHECK_MSG(!IsControlMsg(msg.type), "SendBatch run holds control");
      msg.from = self_;
    }
    if (!run.empty()) engine_->queue_.push_back(Item{to, std::move(run)});
    run.Clear();
  }

  uint64_t NowMicros() const override { return engine_->logical_time_; }

 private:
  SimEngine* engine_;
  int self_;
};

// Deterministic port: a stateless shim onto the engine's FIFO queue. See
// the OpenIngress doc comment for the contract it preserves.
class SimEngine::SimPort : public IngressPort {
 public:
  SimPort(SimEngine* engine, int to) : engine_(engine), to_(to) {}

  int to() const override { return to_; }

  using IngressPort::Post;
  using IngressPort::PostBatch;

  bool Post(int to, Envelope msg) override {
    if (!Accept(to)) return false;
    engine_->Enqueue(to, std::move(msg));
    posted_++;
    return true;
  }

  bool PostBatch(int to, TupleBatch&& batch) override {
    if (!Accept(to)) return false;
    posted_ += batch.size();
    batches_++;
    // A data batch is one unit; control cuts batches, so a batch holding
    // control is one unit per envelope.
    const bool data = std::none_of(
        batch.items.begin(), batch.items.end(),
        [](const Envelope& msg) { return IsControlMsg(msg.type); });
    if (data) {
      if (!batch.empty()) engine_->queue_.push_back(Item{to, std::move(batch)});
    } else {
      for (Envelope& msg : batch.items) engine_->Enqueue(to, std::move(msg));
    }
    batch.Clear();
    return true;
  }

  void Flush() override {}

  // Plain counters: the simulator is single-threaded, so no atomics needed.
  // Backlog and credit stalls are structurally zero (the port never
  // buffers and the queue is unbounded).
  IngressPortStats stats() const override {
    IngressPortStats s;
    s.posted_envelopes = posted_;
    s.posted_batches = batches_;
    s.rejected_posts = rejected_;
    return s;
  }

 private:
  // False (and counted) after Shutdown; checks the destination otherwise.
  bool Accept(int to) {
    if (engine_->shut_down_) {
      rejected_++;
      return false;
    }
    AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(engine_->tasks_.size()),
                    "Post to unknown task");
    return true;
  }

  SimEngine* engine_;
  const int to_;
  uint64_t posted_ = 0;
  uint64_t batches_ = 0;
  uint64_t rejected_ = 0;
};

std::unique_ptr<IngressPort> SimEngine::OpenIngress(int to) {
  AJOIN_CHECK_MSG(to >= 0 && to < static_cast<int>(tasks_.size()),
                  "OpenIngress: unknown destination task");
  return std::make_unique<SimPort>(this, to);
}

void SimEngine::WaitQuiescent() {
  AJOIN_CHECK_MSG(!draining_, "reentrant WaitQuiescent");
  draining_ = true;
  while (!queue_.empty()) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    AJOIN_CHECK_MSG(item.to >= 0 && item.to < static_cast<int>(tasks_.size()),
                    "message to unknown task");
    const uint64_t envelopes = item.batch.size();
    SimContext ctx(this, item.to);
    tasks_[static_cast<size_t>(item.to)]->OnBatch(std::move(item.batch), ctx);
    dispatched_ += envelopes;
    logical_time_ += envelopes;
  }
  draining_ = false;
}

}  // namespace ajoin
