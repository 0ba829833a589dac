#include "src/core/control_loop.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/core/operator.h"

namespace ajoin {

ControlLoop::ControlLoop(const MetricsRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  AJOIN_CHECK_MSG(registry_ != nullptr, "control loop: registry required");
}

ControlLoop::ControlLoop(const MetricsRegistry* registry)
    : ControlLoop(registry, Options()) {}

ControlLoop::~ControlLoop() { Stop(); }

void ControlLoop::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  exchange_source_ = std::move(source);
}

void ControlLoop::SetEdgeSource(
    std::function<std::vector<EdgeStatsSnapshot>()> source) {
  edge_source_ = std::move(source);
}

void ControlLoop::SetBacklogSource(std::function<uint64_t()> source) {
  backlog_source_ = std::move(source);
}

void ControlLoop::SetTraceSource(const TraceRing* trace) { trace_ = trace; }

size_t ControlLoop::Attach(Operator& op, std::vector<int> joiner_tasks) {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    AJOIN_CHECK_MSG(!running_, "control loop: attach before Start()");
  }
  AJOIN_CHECK_MSG(!joiner_tasks.empty(),
                  "control loop: no joiner tasks to watch");
  const std::unordered_set<int> tasks(joiner_tasks.begin(),
                                      joiner_tasks.end());
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].op != &op) continue;
    AJOIN_CHECK_MSG(ops_[i].joiner_tasks == tasks,
                    "control loop: operator attached with other joiners");
    return i;
  }
  ops_.emplace_back();
  ops_.back().op = &op;
  ops_.back().joiner_tasks = tasks;
  return ops_.size() - 1;
}

size_t ControlLoop::Autoscale(Operator& op, std::vector<int> joiner_tasks,
                              AutoscaleConfig config) {
  const size_t i = Attach(op, std::move(joiner_tasks));
  AJOIN_CHECK_MSG(!ops_[i].autoscale.has_value(),
                  "control loop: operator already autoscaled");
  ops_[i].autoscale_config = config;
  ops_[i].autoscale.emplace(config);
  return i;
}

size_t ControlLoop::Shed(Operator& op, std::vector<int> joiner_tasks,
                         ShedConfig config) {
  const size_t i = Attach(op, std::move(joiner_tasks));
  AJOIN_CHECK_MSG(!ops_[i].shed.has_value(),
                  "control loop: operator already shed");
  ops_[i].shed_config = config;
  ops_[i].shed.emplace(config);
  return i;
}

TelemetrySample ControlLoop::Sample(uint64_t t_us) {
  TelemetrySample sample;
  sample.t_us = t_us;
  sample.tasks = registry_->Snapshot();
  if (edge_source_) sample.edges = edge_source_();
  if (exchange_source_) sample.exchange = exchange_source_();
  if (backlog_source_) sample.backlog = backlog_source_();
  std::lock_guard<std::mutex> lock(mu_);
  series_.push_back(sample);
  taken_++;
  while (series_.size() > options_.capacity) series_.pop_front();
  return sample;
}

void ControlLoop::TickNow(uint64_t t_us) {
  const TelemetrySample sample = Sample(t_us);
  const bool have_dt = have_last_ && t_us > last_t_us_;
  const double dt_us = have_dt ? static_cast<double>(t_us - last_t_us_) : 0;
  const uint64_t stall_ns = sample.exchange.credit_wait_ns;
  const double stall_ratio =
      have_dt ? static_cast<double>(stall_ns - last_stall_ns_) / (dt_us * 1e3)
              : 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    Attached& a = ops_[i];
    ControlSignals s;
    s.stall_ratio = stall_ratio;
    s.backlog = sample.backlog;
    uint64_t in_tuples = 0;
    for (const TaskSnapshot& task : sample.tasks) {
      if (task.kind != TaskKind::kJoiner ||
          a.joiner_tasks.count(task.task) == 0) {
        continue;
      }
      const JoinerSnapshot& j = task.joiner;
      in_tuples += j.in_tuples;
      if (j.migrating) s.migrating = true;
      if (j.active) {
        ++s.live_joiners;
        s.max_stored = std::max(s.max_stored, j.stored_tuples);
      }
    }
    if (have_dt) {
      s.input_rate =
          static_cast<double>(in_tuples - a.last_in_tuples) / (dt_us / 1e6);
    }
    a.last_in_tuples = in_tuples;
    Step(i, t_us, s);
  }
  last_t_us_ = t_us;
  last_stall_ns_ = stall_ns;
  have_last_ = true;
}

void ControlLoop::Step(size_t index, uint64_t t_us,
                       const ControlSignals& s) {
  Attached& a = ops_[index];
  Decision rec;
  rec.t_us = t_us;
  rec.op = index;
  rec.signals = s;
  if (a.autoscale.has_value()) {
    const AutoscalePolicy::Decision d = a.autoscale->OnSample(s);
    if (d != AutoscalePolicy::Decision::kHold) {
      const bool grow = d == AutoscalePolicy::Decision::kGrow;
      rec.action = grow ? Action::kGrow : Action::kShrink;
      rec.prev = s.live_joiners;
      rec.next = grow ? uint64_t{s.live_joiners} * 4 : s.live_joiners / 4;
      rec.accepted = grow ? a.op->GrowJoiners(1) : a.op->ShrinkJoiners(1);
      std::lock_guard<std::mutex> lock(mu_);
      decisions_.push_back(rec);
    }
  }
  if (a.shed.has_value()) {
    // Step a copy and keep it only if the operator runs the rate it chose:
    // after a refused change the policy stays where the joiners are, so the
    // next tick retries instead of stepping on from a rate never applied.
    ShedPolicy next = *a.shed;
    const uint32_t prev = a.shed->rate_ppm();
    const uint32_t rate = next.OnSample(s);
    if (rate != prev) {
      rec.action = Action::kShedRate;
      rec.prev = prev;
      rec.next = rate;
      rec.accepted = a.op->SetShedRate(rate);
      std::lock_guard<std::mutex> lock(mu_);
      decisions_.push_back(rec);
    }
    if (rate == prev || rec.accepted) *a.shed = next;
  }
}

void ControlLoop::Loop() {
  const auto period = std::chrono::microseconds(options_.period_us);
  for (;;) {
    TickNow(SteadyNowMicros());
    std::unique_lock<std::mutex> lock(stop_mu_);
    // ajoin-lint: timed-park — control cadence; wakes every period even if
    // the stop notify is lost.
    if (stop_cv_.wait_for(lock, period, [this] { return stop_; })) return;
  }
}

void ControlLoop::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ControlLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
  }
  stop_cv_.notify_all();
  thread_.join();
  Sample(SteadyNowMicros());  // telemetry only: the series ends fresh
}

std::vector<TelemetrySample> ControlLoop::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TelemetrySample>(series_.begin(), series_.end());
}

uint64_t ControlLoop::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return taken_;
}

std::vector<ControlLoop::Decision> ControlLoop::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

uint64_t ControlLoop::accepted_count(size_t op, Action action) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint64_t>(std::count_if(
      decisions_.begin(), decisions_.end(), [&](const Decision& d) {
        return d.op == op && d.action == action && d.accepted;
      }));
}

uint32_t ControlLoop::shed_rate_ppm(size_t op) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = decisions_.rbegin(); it != decisions_.rend(); ++it) {
    if (it->op == op && it->action == Action::kShedRate && it->accepted) {
      return static_cast<uint32_t>(it->next);
    }
  }
  return static_cast<uint32_t>(kShedExactPpm);
}

std::string ControlLoop::SummaryLine(const TelemetrySample& sample) {
  uint64_t in = 0, out = 0, stored = 0, migrations = 0, routed = 0;
  int migrating = 0, joiners = 0, reshufflers = 0, aggs = 0;
  for (const TaskSnapshot& task : sample.tasks) {
    if (task.kind == TaskKind::kJoiner) {
      joiners++;
      in += task.joiner.in_tuples;
      out += task.joiner.output_tuples;
      stored += task.joiner.stored_tuples;
      migrations += task.joiner.migrations_finalized;
      if (task.joiner.migrating) migrating++;
    } else if (task.kind == TaskKind::kAgg) {
      aggs++;
      in += task.agg.in_tuples;
      out += task.agg.emitted_results;
      stored += task.agg.groups;
      migrations += task.agg.migrations_finalized;
      if (task.agg.migrating) migrating++;
    } else {
      reshufflers++;
      routed += task.reshuffler.routed_tuples;
    }
  }
  uint64_t edge_waits = 0, edge_wait_ns = 0;
  uint32_t ring_peak = 0;
  for (const EdgeStatsSnapshot& edge : sample.edges) {
    edge_waits += edge.credit_waits;
    edge_wait_ns += edge.credit_wait_ns;
    if (edge.ring_peak > ring_peak) ring_peak = edge.ring_peak;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[telemetry t=%.3fs] %dJ+%dR+%dA in=%" PRIu64
                " routed=%" PRIu64 " out=%" PRIu64 " stored=%" PRIu64
                " migrations=%" PRIu64 " (%d live) stalls=%" PRIu64
                " stall_ms=%.2f ring_peak=%u",
                static_cast<double>(sample.t_us) / 1e6, joiners, reshufflers,
                aggs, in, routed, out, stored, migrations, migrating,
                edge_waits, static_cast<double>(edge_wait_ns) / 1e6,
                ring_peak);
  return std::string(buf);
}

namespace {

// Minimal JSON emission following bench_common.h's writer conventions
// (that header is bench-only, so the loop carries its own emitter): string
// keys, %.6g doubles, flags as 0/1, no trailing commas, two-space indent
// top level.
void AppendKv(std::string* out, const char* key, uint64_t value, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                *first ? "" : ", ", key, value);
  *first = false;
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, double value, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g", *first ? "" : ", ", key,
                value);
  *first = false;
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, const char* value,
              bool* first) {
  out->append(*first ? "" : ", ");
  *first = false;
  out->append("\"");
  out->append(key);
  out->append("\": \"");
  out->append(value);
  out->append("\"");
}

void AppendTask(std::string* out, const TaskSnapshot& task) {
  bool first = true;
  out->append("{");
  AppendKv(out, "task", static_cast<uint64_t>(task.task), &first);
  AppendKv(out, "kind", TaskKindName(task.kind), &first);
  if (task.kind == TaskKind::kJoiner) {
    const JoinerSnapshot& j = task.joiner;
    AppendKv(out, "in_tuples", j.in_tuples, &first);
    AppendKv(out, "in_bytes", j.in_bytes, &first);
    AppendKv(out, "probe_candidates", j.probe_candidates, &first);
    AppendKv(out, "output_tuples", j.output_tuples, &first);
    AppendKv(out, "mig_out_tuples", j.mig_out_tuples, &first);
    AppendKv(out, "mig_in_tuples", j.mig_in_tuples, &first);
    AppendKv(out, "discarded_tuples", j.discarded_tuples, &first);
    AppendKv(out, "migrations_finalized", j.migrations_finalized, &first);
    AppendKv(out, "stored_tuples", j.stored_tuples, &first);
    AppendKv(out, "stored_bytes", j.stored_bytes, &first);
    AppendKv(out, "peak_stored_bytes", j.peak_stored_bytes, &first);
    AppendKv(out, "epoch", static_cast<uint64_t>(j.epoch), &first);
    AppendKv(out, "migrating", static_cast<uint64_t>(j.migrating ? 1 : 0),
             &first);
    AppendKv(out, "active", static_cast<uint64_t>(j.active ? 1 : 0), &first);
    AppendKv(out, "shed_probes_skipped", j.shed_probes_skipped, &first);
    AppendKv(out, "shed_rate_ppm", static_cast<uint64_t>(j.shed_rate_ppm),
             &first);
  } else if (task.kind == TaskKind::kAgg) {
    const AggSnapshot& a = task.agg;
    AppendKv(out, "in_tuples", a.in_tuples, &first);
    AppendKv(out, "in_bytes", a.in_bytes, &first);
    AppendKv(out, "groups", a.groups, &first);
    AppendKv(out, "table_bytes", a.table_bytes, &first);
    AppendKv(out, "mig_out_cells", a.mig_out_cells, &first);
    AppendKv(out, "mig_in_cells", a.mig_in_cells, &first);
    AppendKv(out, "migrations_finalized", a.migrations_finalized, &first);
    AppendKv(out, "emitted_results", a.emitted_results, &first);
    AppendKv(out, "epoch", static_cast<uint64_t>(a.epoch), &first);
    AppendKv(out, "migrating", static_cast<uint64_t>(a.migrating ? 1 : 0),
             &first);
    AppendKv(out, "flushed", static_cast<uint64_t>(a.flushed ? 1 : 0), &first);
  } else {
    const ReshufflerMetrics& r = task.reshuffler;
    AppendKv(out, "routed_tuples", r.routed_tuples, &first);
    AppendKv(out, "sent_msgs", r.sent_msgs, &first);
    AppendKv(out, "sent_bytes", r.sent_bytes, &first);
    AppendKv(out, "epoch_changes", r.epoch_changes, &first);
    AppendKv(out, "results_restamped", r.results_restamped, &first);
  }
  out->append("}");
}

void AppendEdge(std::string* out, const EdgeStatsSnapshot& edge) {
  bool first = true;
  out->append("{");
  AppendKv(out, "producer", static_cast<uint64_t>(edge.producer), &first);
  AppendKv(out, "consumer", static_cast<uint64_t>(edge.consumer), &first);
  AppendKv(out, "bounded", static_cast<uint64_t>(edge.bounded ? 1 : 0),
           &first);
  AppendKv(out, "batches", edge.batches, &first);
  AppendKv(out, "envelopes", edge.envelopes, &first);
  AppendKv(out, "credit_waits", edge.credit_waits, &first);
  AppendKv(out, "credit_wait_ns", edge.credit_wait_ns, &first);
  AppendKv(out, "overflow_batches", edge.overflow_batches, &first);
  AppendKv(out, "ring_occupancy", static_cast<uint64_t>(edge.ring_occupancy),
           &first);
  AppendKv(out, "ring_peak", static_cast<uint64_t>(edge.ring_peak), &first);
  AppendKv(out, "ring_capacity", static_cast<uint64_t>(edge.ring_capacity),
           &first);
  AppendKv(out, "overflow_depth", static_cast<uint64_t>(edge.overflow_depth),
           &first);
  out->append("}");
}

void AppendSample(std::string* out, const TelemetrySample& sample) {
  out->append("    {");
  bool first = true;
  AppendKv(out, "t_us", sample.t_us, &first);
  AppendKv(out, "backlog", sample.backlog, &first);
  out->append(", \"exchange\": {");
  bool xfirst = true;
  AppendKv(out, "envelopes", sample.exchange.envelopes, &xfirst);
  AppendKv(out, "batches", sample.exchange.batches, &xfirst);
  AppendKv(out, "credit_waits", sample.exchange.credit_waits, &xfirst);
  AppendKv(out, "credit_wait_ns", sample.exchange.credit_wait_ns, &xfirst);
  AppendKv(out, "overflow_batches", sample.exchange.overflow_batches, &xfirst);
  out->append("}, \"tasks\": [");
  for (size_t i = 0; i < sample.tasks.size(); ++i) {
    if (i != 0) out->append(", ");
    AppendTask(out, sample.tasks[i]);
  }
  out->append("], \"edges\": [");
  for (size_t i = 0; i < sample.edges.size(); ++i) {
    if (i != 0) out->append(", ");
    AppendEdge(out, sample.edges[i]);
  }
  out->append("]}");
}

const char* ActionName(ControlLoop::Action action) {
  switch (action) {
    case ControlLoop::Action::kGrow: return "grow";
    case ControlLoop::Action::kShrink: return "shrink";
    case ControlLoop::Action::kShedRate: return "shed_rate";
  }
  return "?";
}

void AppendThresholds(std::string* out, const AutoscaleConfig& c) {
  bool first = true;
  AppendKv(out, "min_live", static_cast<uint64_t>(c.min_live), &first);
  AppendKv(out, "max_live", static_cast<uint64_t>(c.max_live), &first);
  AppendKv(out, "grow_stall_ratio", c.grow_stall_ratio, &first);
  AppendKv(out, "grow_rate_per_joiner", c.grow_rate_per_joiner, &first);
  AppendKv(out, "shrink_rate_per_joiner", c.shrink_rate_per_joiner, &first);
  AppendKv(out, "surge_ticks", static_cast<uint64_t>(c.surge_ticks), &first);
  AppendKv(out, "idle_ticks", static_cast<uint64_t>(c.idle_ticks), &first);
  AppendKv(out, "cooldown_ticks", static_cast<uint64_t>(c.cooldown_ticks),
           &first);
}

void AppendThresholds(std::string* out, const ShedConfig& c) {
  bool first = true;
  AppendKv(out, "enter_stall_ratio", c.enter_stall_ratio, &first);
  AppendKv(out, "exit_stall_ratio", c.exit_stall_ratio, &first);
  AppendKv(out, "enter_backlog", c.enter_backlog, &first);
  AppendKv(out, "exit_backlog", c.exit_backlog, &first);
  AppendKv(out, "overload_ticks", static_cast<uint64_t>(c.overload_ticks),
           &first);
  AppendKv(out, "recover_ticks", static_cast<uint64_t>(c.recover_ticks),
           &first);
  AppendKv(out, "cooldown_ticks", static_cast<uint64_t>(c.cooldown_ticks),
           &first);
  AppendKv(out, "min_rate_ppm", static_cast<uint64_t>(c.min_rate_ppm),
           &first);
  AppendKv(out, "shed_factor", static_cast<uint64_t>(c.shed_factor), &first);
}

}  // namespace

bool ControlLoop::WriteJson(const std::string& path,
                            const std::string& name) const {
  const std::vector<TelemetrySample> samples = series();
  const std::vector<Decision> log = decisions();
  std::string out;
  out.reserve(4096 + samples.size() * 512 + log.size() * 512);
  out.append("{\n  \"telemetry\": \"");
  out.append(name);
  out.append("\",\n  \"schema_version\": 1,\n  \"meta\": {");
  bool mfirst = true;
  AppendKv(&out, "period_us", options_.period_us, &mfirst);
  AppendKv(&out, "capacity", static_cast<uint64_t>(options_.capacity),
           &mfirst);
  AppendKv(&out, "samples_taken", samples_taken(), &mfirst);
  AppendKv(&out, "samples_kept", static_cast<uint64_t>(samples.size()),
           &mfirst);
  AppendKv(&out, "tasks", static_cast<uint64_t>(registry_->size()), &mfirst);
  out.append("},\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    AppendSample(&out, samples[i]);
    if (i + 1 != samples.size()) out.append(",");
    out.append("\n");
  }
  out.append("  ],\n  \"decisions\": [\n");
  for (size_t i = 0; i < log.size(); ++i) {
    const Decision& d = log[i];
    bool first = true;
    out.append("    {");
    AppendKv(&out, "t_us", d.t_us, &first);
    AppendKv(&out, "op", static_cast<uint64_t>(d.op), &first);
    AppendKv(&out, "action", ActionName(d.action), &first);
    AppendKv(&out, "prev", d.prev, &first);
    AppendKv(&out, "next", d.next, &first);
    AppendKv(&out, "accepted", static_cast<uint64_t>(d.accepted ? 1 : 0),
             &first);
    out.append(", \"signals\": {");
    bool sfirst = true;
    const ControlSignals& s = d.signals;
    AppendKv(&out, "live_joiners", static_cast<uint64_t>(s.live_joiners),
             &sfirst);
    AppendKv(&out, "migrating", static_cast<uint64_t>(s.migrating ? 1 : 0),
             &sfirst);
    AppendKv(&out, "stall_ratio", s.stall_ratio, &sfirst);
    AppendKv(&out, "input_rate", s.input_rate, &sfirst);
    AppendKv(&out, "max_stored", s.max_stored, &sfirst);
    AppendKv(&out, "backlog", s.backlog, &sfirst);
    out.append("}, \"thresholds\": {");
    const Attached& a = ops_[d.op];
    if (d.action == Action::kShedRate) {
      AppendThresholds(&out, a.shed_config);
    } else {
      AppendThresholds(&out, a.autoscale_config);
    }
    out.append("}}");
    if (i + 1 != log.size()) out.append(",");
    out.append("\n");
  }
  out.append("  ],\n  \"trace\": [\n");
  if (trace_ != nullptr) {
    const std::vector<TraceEvent> events = trace_->Snapshot();
    for (size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      bool first = true;
      out.append("    {");
      AppendKv(&out, "index", ev.index, &first);
      AppendKv(&out, "kind", TraceEventKindName(ev.kind), &first);
      AppendKv(&out, "task",
               static_cast<uint64_t>(static_cast<int64_t>(ev.task)), &first);
      AppendKv(&out, "t_us", ev.t_us, &first);
      AppendKv(&out, "a", ev.a, &first);
      AppendKv(&out, "b", ev.b, &first);
      out.append("}");
      if (i + 1 != events.size()) out.append(",");
      out.append("\n");
    }
  }
  out.append("  ]\n}\n");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ajoin
