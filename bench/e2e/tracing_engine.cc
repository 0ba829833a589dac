#include "bench/e2e/tracing_engine.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/core/agg.h"
#include "src/core/joiner.h"
#include "src/core/reshuffler.h"

namespace e2e {

using ajoin::Envelope;
using ajoin::MsgType;
using ajoin::Task;
using ajoin::TupleBatch;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kReshuffler: return "reshuffler";
    case Layer::kController: return "controller";
    case Layer::kJoiner: return "joiner";
    case Layer::kMigration: return "migration";
    case Layer::kAggRouter: return "agg_router";
    case Layer::kAggWorker: return "agg_worker";
    case Layer::kSink: return "sink";
    case Layer::kDriver: return "driver";
  }
  return "?";
}

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SpanBuffer::Record(const Span& span) {
  LayerTotals& t = totals_[static_cast<int>(span.layer)];
  t.calls += 1;
  t.wall_ns += span.wall_ns;
  t.cpu_ns += span.cpu_ns;
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

namespace {

enum class Role : uint8_t {
  kReshuffler,
  kControllerReshuffler,
  kJoiner,
  kAggRouter,
  kAggWorker,
  kOther,
};

Role RoleOf(Task* task) {
  if (auto* r = dynamic_cast<ajoin::ReshufflerCore*>(task)) {
    return r->controller() != nullptr ? Role::kControllerReshuffler
                                      : Role::kReshuffler;
  }
  if (dynamic_cast<ajoin::JoinerCore*>(task) != nullptr) return Role::kJoiner;
  if (dynamic_cast<ajoin::AggRouterCore*>(task) != nullptr) {
    return Role::kAggRouter;
  }
  if (dynamic_cast<ajoin::AggWorkerCore*>(task) != nullptr) {
    return Role::kAggWorker;
  }
  return Role::kOther;
}

const char* RoleName(Role role) {
  switch (role) {
    case Role::kReshuffler: return "reshuffler";
    case Role::kControllerReshuffler: return "reshuffler+controller";
    case Role::kJoiner: return "joiner";
    case Role::kAggRouter: return "agg_router";
    case Role::kAggWorker: return "agg_worker";
    case Role::kOther: return "sink";
  }
  return "?";
}

Layer Classify(Role role, MsgType first) {
  switch (role) {
    case Role::kReshuffler:
      return Layer::kReshuffler;
    case Role::kControllerReshuffler:
      return first == MsgType::kInput || first == MsgType::kResult
                 ? Layer::kReshuffler
                 : Layer::kController;
    case Role::kJoiner:
      return first == MsgType::kReshufSignal || first == MsgType::kMigrate ||
                     first == MsgType::kMigEnd
                 ? Layer::kMigration
                 : Layer::kJoiner;
    case Role::kAggRouter:
      return Layer::kAggRouter;
    case Role::kAggWorker:
      return Layer::kAggWorker;
    case Role::kOther:
      return Layer::kSink;
  }
  return Layer::kSink;
}

}  // namespace

class TracedTask : public Task {
 public:
  explicit TracedTask(std::unique_ptr<Task> inner)
      : inner_(std::move(inner)), role_(RoleOf(inner_.get())) {}

  void OnMessage(Envelope msg, ajoin::Context& ctx) override {
    const MsgType type = msg.type;
    const uint64_t w0 = WallNs();
    const uint64_t c0 = ThreadCpuNs();
    inner_->OnMessage(std::move(msg), ctx);
    Finish(w0, c0, 1, type);
  }

  void OnBatch(TupleBatch batch, ajoin::Context& ctx) override {
    const MsgType type =
        batch.empty() ? MsgType::kInput : batch.items.front().type;
    const auto n = static_cast<uint32_t>(batch.size());
    const uint64_t w0 = WallNs();
    const uint64_t c0 = ThreadCpuNs();
    inner_->OnBatch(std::move(batch), ctx);
    Finish(w0, c0, n, type);
  }

  bool dormant() const override { return inner_->dormant(); }

  Task* inner() const { return inner_.get(); }
  Role role() const { return role_; }
  const SpanBuffer& buffer() const { return buffer_; }

 private:
  void Finish(uint64_t w0, uint64_t c0, uint32_t n, MsgType type) {
    Span span;
    span.cpu_ns = ThreadCpuNs() - c0;
    const uint64_t w1 = WallNs();
    span.start_ns = w0;
    span.wall_ns = w1 - w0;
    span.envelopes = n;
    span.layer = Classify(role_, type);
    span.type = type;
    buffer_.Record(span);
  }

  std::unique_ptr<Task> inner_;
  const Role role_;
  SpanBuffer buffer_;
};

int TracingEngine::AddTask(std::unique_ptr<Task> task) {
  auto traced = std::make_unique<TracedTask>(std::move(task));
  TracedTask* raw = traced.get();
  const int id = inner_.AddTask(std::move(traced));
  traced_.push_back(raw);
  return id;
}

Task* TracingEngine::task(int id) {
  return traced_[static_cast<size_t>(id)]->inner();
}

const SpanBuffer& TracingEngine::buffer(int id) const {
  return traced_[static_cast<size_t>(id)]->buffer();
}

const char* TracingEngine::role_name(int id) const {
  return RoleName(traced_[static_cast<size_t>(id)]->role());
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers,
                      const std::vector<std::string>& thread_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanBuffer* b : buffers) {
    if (!b->spans().empty() && b->spans().front().start_ns < origin) {
      origin = b->spans().front().start_ns;
    }
  }
  if (origin == UINT64_MAX) origin = 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t tid = 0; tid < buffers.size(); ++tid) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, thread_names[tid].c_str());
    first = false;
    for (const Span& s : buffers[tid]->spans()) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                   "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"cpu_us\":%.3f,\"envelopes\":%u}}",
                   tid, LayerName(s.layer), ajoin::MsgTypeName(s.type),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.wall_ns) / 1e3,
                   static_cast<double>(s.cpu_ns) / 1e3, s.envelopes);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
