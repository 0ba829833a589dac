#include "src/core/joiner.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/trace_ring.h"
#include "src/runtime/metrics_registry.h"
#include "src/tuple/serde.h"

namespace ajoin {

JoinerCore::JoinerCore(JoinerConfig config)
    : config_(std::move(config)),
      layout_(config_.initial_layout),
      index_{JoinIndex(JoinIndex::KindFor(config_.spec.kind)),
             JoinIndex(JoinIndex::KindFor(config_.spec.kind))} {
  // Deterministic per-slot shed sampler: the same slot always draws the
  // same admission sequence, so sampled runs reproduce given the same
  // per-edge message order.
  shed_rng_.Seed(SplitMix64(
      (static_cast<uint64_t>(config_.group) << 32) | config_.machine_index));
  // Seed the telemetry cell before the first dispatch so samplers see the
  // correct participation flag for slots that have not received a message
  // yet (dormant expansion slots in particular).
  Publish();
}

void JoinerCore::Publish() {
  if (config_.telemetry == nullptr) return;
  config_.telemetry->PublishJoiner(metrics_, epoch_, migrating_,
                                   participating(), shed_rate_ppm_);
}

void JoinerCore::OnMessage(Envelope msg, Context& ctx) {
  switch (msg.type) {
    case MsgType::kData:
      if (!migrating_) {
        // Steady data has one path: a lone tuple is a one-tuple batch.
        OnBatch(TupleBatch(std::move(msg)), ctx);
        return;
      }
      HandleData(msg, ctx);
      break;
    case MsgType::kMigrate:
      HandleMigrate(msg, ctx);
      break;
    case MsgType::kMigEnd:
      HandleMigEnd(ctx);
      break;
    case MsgType::kReshufSignal:
      HandleSignal(msg, ctx);
      break;
    case MsgType::kEos:
      HandleEos(ctx);
      break;
    case MsgType::kShed:
      HandleShed(msg, ctx);
      break;
    default:
      AJOIN_CHECK_MSG(false, "joiner: unexpected message type");
  }
  // Ship any results this message produced before the Context goes away.
  if (!egress_.empty()) FlushEgress(ctx);
  // Publish live telemetry once per dispatch: counters stay plain stores
  // above; the cell write is the only synchronized step.
  Publish();
}

void JoinerCore::OnBatch(TupleBatch batch, Context& ctx) {
  // Everything that is not steady data takes the default OnMessage loop:
  // control singletons, µ (kMigrate) batches, and any batch that arrives
  // while a migration is active (Δ/Δ' scoping and migration bookkeeping
  // stay per-envelope). A migration cannot start mid-batch — kReshufSignal
  // is control and therefore always a singleton batch — so checking
  // migrating_ once up front is sound. kData and kMigrate travel different
  // edges, so a batch's first type is every envelope's; the run scan below
  // checks it anyway.
  if (migrating_ || batch.empty() ||
      batch.items.front().type != MsgType::kData) {
    Task::OnBatch(std::move(batch), ctx);
    return;
  }
  // Batches never mix epochs (task.h invariant 3): the per-envelope
  // admission check hoists to one check per batch.
  AJOIN_CHECK_MSG(batch.items.front().epoch == epoch_,
                  "new-epoch tuple before its reshuffler signal");
  const Envelope* run = batch.items.data();
  const Envelope* const end = run + batch.size();
  while (true) {
    // Stored tuples run up to the next probe-only tuple, one relation at a
    // time; the S group's probes see the R group's stores (why every pair
    // is still emitted exactly once: see the header).
    const Envelope* cut =
        std::find_if(run, end, [](const Envelope& msg) {
          return !msg.store || msg.type != MsgType::kData;
        });
    if (cut != run) {
      for (const Rel rel : {Rel::kR, Rel::kS}) {
        ProbeGroup(run, cut, rel, ctx);
        StoreGroup(run, cut, rel);
      }
    }
    if (cut == end) break;
    AJOIN_CHECK_MSG(cut->type == MsgType::kData,
                    "joiner: data batch mixes message types");
    // A probe-only tuple (cross-group probe) probes exactly the stores that
    // precede it on its edge, with its own admission coin, and is never
    // stored for a later tuple to find.
    if (AdmitProbe()) {
      emit_weight_ = shed_weight_;
      Probe(*cut, Scope::kAll, ctx);
      emit_weight_ = 1.0;
    }
    run = cut + 1;
  }
  // One egress batch per input batch (the per-envelope path flushes per
  // message instead; both orders are per-edge FIFO, which is all sinks and
  // downstream stages rely on).
  if (!egress_.empty()) FlushEgress(ctx);
  // One telemetry publish per batch (the per-envelope paths publish per
  // envelope through OnMessage).
  Publish();
}

// ---------------------------------------------------------------------------
// Probe scopes
// ---------------------------------------------------------------------------

bool JoinerCore::EntryInScope(const StoredEntry& entry, Rel entry_rel,
                              Scope scope) const {
  switch (scope) {
    case Scope::kAll:
      // Steady state. Early-arriving migrated tuples (origin MIG before our
      // first signal) must be excluded: their pairs with old-epoch tuples are
      // produced at the machines owning them under the old mapping.
      return entry.origin() == kOriginData;
    case Scope::kOldData:
      return entry.origin() == kOriginData && entry.epoch() <= old_epoch_;
    case Scope::kNewOwned:
      return plan_->Keeps(config_.machine_index, entry_rel, entry.tag);
    case Scope::kDeltaPrime:
      return entry.epoch() == new_epoch_ && entry.origin() == kOriginData;
  }
  return false;
}

bool JoinerCore::RowsMatch(const Envelope& msg, const Row* stored_row) const {
  if (msg.has_row && stored_row != nullptr) {
    return msg.rel == Rel::kR ? config_.spec.Matches(msg.row, *stored_row)
                              : config_.spec.Matches(*stored_row, msg.row);
  }
  // Slim mode: index candidates already satisfy the key predicate for
  // equi/band; theta requires rows.
  AJOIN_CHECK_MSG(config_.spec.kind != JoinSpec::Kind::kTheta,
                  "theta joins require materialized rows");
  return true;
}

void JoinerCore::MatchAndEmit(const Envelope& msg, uint64_t id, Scope scope,
                              Context& ctx) {
  metrics_.probe_candidates++;
  const Rel opp = Opposite(msg.rel);
  const auto opp_i = static_cast<size_t>(opp);
  const StoredEntry& entry = entries_[opp_i][id];
  if (!EntryInScope(entry, opp, scope)) return;
  const Row* row = StoredRow(opp_i, id);
  if (RowsMatch(msg, row)) Emit(msg, entry, row, ctx);
}

void JoinerCore::Probe(const Envelope& msg, Scope scope, Context& ctx) {
  const auto opp_i = static_cast<size_t>(Opposite(msg.rel));
  int64_t lo = 0, hi = 0;
  config_.spec.ProbeRange(msg.rel, msg.key, &lo, &hi);
  index_[opp_i].ForEachCandidate(
      lo, hi, [&](uint64_t id) { MatchAndEmit(msg, id, scope, ctx); });
}

// Candidates in flight between the index's emission of an id (which
// prefetches its stored entry) and its MatchAndEmit: deep enough to overlap
// several entry misses, short enough that the prefetched lines are still
// in L1 when matched. A power of two so the ring index is a mask.
static constexpr size_t kCandidateWindow = 8;

void JoinerCore::ProbeGroup(const Envelope* begin, const Envelope* end,
                            Rel rel, Context& ctx) {
  // Steady-state (Scope::kAll) probes of the run's `rel` tuples against the
  // opposite index. Under shedding each tuple draws its admission coin
  // here and is still stored exactly; each join pair has exactly one probe
  // site, so admission at rate p with weight 1/p at emission is an unbiased
  // Horvitz-Thompson sample of the exact output. probe_msgs_[i] is the
  // tuple whose key is group_keys_[i].
  probe_msgs_.clear();
  group_keys_.clear();
  for (const Envelope* msg = begin; msg != end; ++msg) {
    if (msg->rel != rel) continue;
    metrics_.in_tuples++;
    metrics_.in_bytes += msg->bytes;
    if (!AdmitProbe()) continue;
    probe_msgs_.push_back(msg);
    group_keys_.push_back(msg->key);  // equi ProbeRange is the key itself
  }
  emit_weight_ = shed_weight_;  // 1.0 unless shedding
  if (config_.spec.kind != JoinSpec::Kind::kEqui) {
    for (const Envelope* msg : probe_msgs_) Probe(*msg, Scope::kAll, ctx);
    emit_weight_ = 1.0;
    return;
  }
  // Equi groups go through the batched ProbeRun entry point, so the flat
  // index prefetch-pipelines the whole group, then a look-ahead window:
  // every candidate prefetches its entry (and row slot) on arrival and is
  // matched kCandidateWindow candidates later, so the emission order is the
  // index's, unchanged. Candidates go through the same MatchAndEmit body as
  // scalar Probe().
  struct Candidate {
    const Envelope* msg;  // the probing tuple
    uint64_t id;          // stored entry id
  };
  Candidate window[kCandidateWindow] = {};
  size_t arrived = 0;
  const auto opp_i = static_cast<size_t>(Opposite(rel));
  const StoredEntry* entries = entries_[opp_i].data();
  const Row* rows = rows_[opp_i].empty() ? nullptr : rows_[opp_i].data();
  const Envelope* const* msgs = probe_msgs_.data();
  const auto match = [&](const Candidate& c) {
    MatchAndEmit(*c.msg, c.id, Scope::kAll, ctx);
  };
  index_[opp_i].ProbeRun(
      group_keys_.data(), group_keys_.size(), [&](size_t pi, uint64_t id) {
        __builtin_prefetch(entries + id);
        if (rows != nullptr) __builtin_prefetch(rows + id);
        Candidate& slot = window[arrived++ & (kCandidateWindow - 1)];
        if (arrived > kCandidateWindow) match(slot);
        slot = Candidate{msgs[pi], id};
      });
  const size_t first = arrived > kCandidateWindow ? arrived - kCandidateWindow
                                                  : 0;
  for (size_t c = first; c < arrived; ++c) {
    match(window[c & (kCandidateWindow - 1)]);
  }
  emit_weight_ = 1.0;
}

void JoinerCore::Emit(const Envelope& msg, const StoredEntry& matched,
                      const Row* matched_row, Context& ctx) {
  metrics_.output_tuples++;
  if (config_.collect_pairs) {
    if (msg.rel == Rel::kR) {
      pairs_.emplace_back(msg.seq, matched.seq);
    } else {
      pairs_.emplace_back(matched.seq, msg.seq);
    }
  }
  if (config_.result_sink >= 0) StageResult(msg, matched, matched_row, ctx);
}

// Staged runs are cut at the wire's default batch size; a dispatch that
// produces more results than this ships several batches (per-edge FIFO
// either way).
static constexpr size_t kEgressRunMax = 128;

void JoinerCore::StageResult(const Envelope& msg, const StoredEntry& matched,
                             const Row* matched_row, Context& ctx) {
  // kResult field use is documented at the MsgType declaration: the pair's
  // identity travels as (seq, tag) = (r_seq, s_seq) and the payload as the
  // concatenated row, so a sink can reproduce CollectPairs() exactly and a
  // downstream stage sees the same row LocalJoin would materialize.
  // FlushEgress hands the run's vector to the exchange, so every run starts
  // from zero capacity. A run that reaches a second result is sized for a
  // full run once instead of regrowing; a one-result run (per-message
  // dispatch during a migration, a sparse batch) stays one small
  // allocation.
  if (egress_.size() == 1) egress_.items.reserve(kEgressRunMax);
  Envelope& res = egress_.items.emplace_back();
  const Rel msg_rel = msg.rel;
  res.type = MsgType::kResult;
  res.rel = msg_rel;
  // The pair's identity fields do not depend on which tuple probed: (seq,
  // tag) = (r_seq, s_seq) and key = the R tuple's key (on band and theta
  // joins the two keys differ).
  if (msg_rel == Rel::kR) {
    res.key = msg.key;
    res.seq = msg.seq;
    res.tag = matched.seq;
  } else {
    res.key = matched.key;
    res.seq = matched.seq;
    res.tag = msg.seq;
  }
  res.bytes = msg.bytes + matched.bytes;
  res.group = config_.group;
  res.ingest_us = msg.ingest_us;
  res.weight = emit_weight_;  // 1.0 exact; 1/p under shed-mode probes
  if (msg.has_row && matched_row != nullptr) {
    const Row& r_row = msg_rel == Rel::kR ? msg.row : *matched_row;
    const Row& s_row = msg_rel == Rel::kR ? *matched_row : msg.row;
    res.has_row = true;
    res.row.AppendAll(r_row);
    res.row.AppendAll(s_row);
  }
  if (egress_.size() >= kEgressRunMax) FlushEgress(ctx);
}

void JoinerCore::FlushEgress(Context& ctx) {
  ctx.SendBatch(config_.result_sink, std::move(egress_));
  egress_.Clear();
}

uint32_t JoinerCore::EpochWord(uint32_t epoch, uint8_t origin,
                               bool has_row) {
  AJOIN_CHECK_MSG(epoch <= kEpochMask, "epoch overflows the stored entry");
  return epoch | (static_cast<uint32_t>(has_row) << 30) |
         (static_cast<uint32_t>(origin) << 31);
}

namespace {

// Appends entry `id`'s slot to a relation's row side array (see
// JoinerCore::rows_): the first row back-fills empty rows for the row-less
// entries before it; after that every entry gets a slot.
void AppendRowSlot(std::vector<Row>* rows, size_t id, const Row* row) {
  if (row != nullptr) {
    rows->resize(id);
    rows->push_back(*row);
  } else if (!rows->empty()) {
    rows->emplace_back();
  }
}

}  // namespace

uint64_t JoinerCore::AppendEntry(const Envelope& msg, uint8_t origin,
                                 uint32_t epoch) {
  const auto rel_i = static_cast<size_t>(msg.rel);
  const bool has_row = msg.has_row && config_.keep_rows;
  auto& entries = entries_[rel_i];
  AppendRowSlot(&rows_[rel_i], entries.size(), has_row ? &msg.row : nullptr);
  StoredEntry& entry = entries.emplace_back();
  entry.key = msg.key;
  entry.tag = msg.tag;
  entry.seq = msg.seq;
  entry.bytes = msg.bytes;
  entry.epoch_word = EpochWord(epoch, origin, has_row);
  metrics_.NoteStored(msg.bytes);
  return entries.size() - 1;
}

void JoinerCore::Store(const Envelope& msg, uint8_t origin, uint32_t epoch) {
  const uint64_t id = AppendEntry(msg, origin, epoch);
  index_[static_cast<size_t>(msg.rel)].Add(IndexKey(msg.key), id);
}

void JoinerCore::StoreGroup(const Envelope* begin, const Envelope* end,
                            Rel rel) {
  // The group's entries take consecutive ids, so one AddRun indexes them in
  // the same order as a Store per tuple would.
  const auto rel_i = static_cast<size_t>(rel);
  const uint64_t first_id = entries_[rel_i].size();
  group_keys_.clear();
  for (const Envelope* msg = begin; msg != end; ++msg) {
    if (msg->rel != rel) continue;
    AppendEntry(*msg, kOriginData, epoch_);
    group_keys_.push_back(IndexKey(msg->key));
  }
  index_[rel_i].AddRun(group_keys_.data(), group_keys_.size(), first_id);
}

void JoinerCore::RebuildIndex(size_t rel_i) {
  const auto& entries = entries_[rel_i];
  auto& index = index_[rel_i];
  index.Clear();
  // The rebuilt state's size is known here: pre-size the index so the
  // rebuild does not rehash/grow mid-migration.
  index.Reserve(entries.size());
  for (uint64_t id = 0; id < entries.size(); ++id) {
    index.Add(IndexKey(entries[id].key), id);
  }
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void JoinerCore::HandleData(Envelope& msg, Context& ctx) {
  // Mid-migration only: steady data takes OnBatch. Grouped operators run
  // with barrier migrations, so cross-group probes never overlap an active
  // migration (DESIGN.md section 5).
  AJOIN_CHECK_MSG(msg.store, "probe during migration (barrier violated)");
  metrics_.in_tuples++;
  metrics_.in_bytes += msg.bytes;
  if (msg.epoch == old_epoch_) {
    // Δ tuple (Alg. 3, HandleTuple1 lines 15-20).
    Probe(msg, Scope::kOldData, ctx);
    bool keep = plan_->Keeps(config_.machine_index, msg.rel, msg.tag);
    if (keep) Probe(msg, Scope::kDeltaPrime, ctx);
    Store(msg, kOriginData, old_epoch_);
    ForwardPerDirectives(msg, ctx);
  } else if (msg.epoch == new_epoch_) {
    // Δ' tuple (lines 12-14 / 24-26).
    Probe(msg, Scope::kNewOwned, ctx);
    Store(msg, kOriginData, new_epoch_);
  } else {
    AJOIN_CHECK_MSG(false, "tuple more than one epoch away");
  }
}

void JoinerCore::HandleMigrate(Envelope& msg, Context& ctx) {
  metrics_.mig_in_tuples++;
  metrics_.mig_in_bytes += msg.bytes;
  // µ tuple: join with Δ' only (lines 10-11 / 22-23). Δ' entries carry the
  // pending epoch (epoch_ + 1 when the migration has not locally started).
  uint32_t pending = migrating_ ? new_epoch_ : epoch_ + 1;
  const Rel opp = Opposite(msg.rel);
  const auto opp_i = static_cast<size_t>(opp);
  int64_t lo = 0, hi = 0;
  config_.spec.ProbeRange(msg.rel, msg.key, &lo, &hi);
  const auto& entries = entries_[opp_i];
  index_[opp_i].ForEachCandidate(lo, hi, [&](uint64_t id) {
    const StoredEntry& entry = entries[id];
    metrics_.probe_candidates++;
    if (entry.epoch() != pending || entry.origin() != kOriginData) return;
    const Row* row = StoredRow(opp_i, id);
    if (RowsMatch(msg, row)) Emit(msg, entry, row, ctx);
  });
  Store(msg, kOriginMig, msg.epoch);
}

void JoinerCore::HandleMigEnd(Context& ctx) {
  if (plan_ == nullptr) {
    ++early_migend_;
    return;
  }
  --migend_pending_;
  MaybeFinalize(ctx);
}

// ---------------------------------------------------------------------------
// Migration control
// ---------------------------------------------------------------------------

void JoinerCore::HandleSignal(Envelope& msg, Context& ctx) {
  const EpochSpec& spec = msg.espec;
  AJOIN_CHECK(spec.group == config_.group);
  if (signals_seen_ == 0) {
    StartMigration(spec, ctx);
  } else {
    AJOIN_CHECK_MSG(spec.epoch == new_epoch_, "signal for wrong epoch");
  }
  ++signals_seen_;
  AJOIN_CHECK(signals_seen_ <= config_.num_reshufflers);
  if (signals_seen_ == config_.num_reshufflers &&
      config_.machine_index < plan_->NumMachines()) {
    // No further Δ can arrive (FIFO per reshuffler channel): flush MigEnd
    // markers to every migration target. (Machines without directives —
    // expansion children, pure-discard peers — have no targets.)
    for (uint32_t target : plan_->TargetsOf(config_.machine_index)) {
      Envelope end;
      end.type = MsgType::kMigEnd;
      end.group = config_.group;
      ctx.Send(config_.joiner_task_base + static_cast<int>(target),
               std::move(end));
    }
  }
  MaybeFinalize(ctx);
}

void JoinerCore::StartMigration(const EpochSpec& spec, Context& ctx) {
  AJOIN_CHECK_MSG(!migrating_, "overlapping migrations");
  AJOIN_CHECK_MSG(spec.epoch == epoch_ + 1, "non-consecutive epoch");
  migrating_ = true;
  old_epoch_ = epoch_;
  new_epoch_ = spec.epoch;
  if (config_.trace != nullptr) {
    config_.trace->Record(TraceEventKind::kMigrationBegin, ctx.self(),
                          ctx.NowMicros(), new_epoch_, config_.group);
  }
  to_layout_ = spec.expansion     ? layout_.Expand()
               : spec.contraction ? layout_.Contract(spec.mapping)
                                  : layout_.Relabel(spec.mapping);
  AJOIN_CHECK(to_layout_.mapping() == spec.mapping);
  plan_ = std::make_unique<MigrationPlan>(layout_, to_layout_, spec.expansion);
  // Participation is defined by the *target* layout: expansion children are
  // not in the old grid but receive state and wait for their senders'
  // MigEnds; machines beyond the target grid (dormant slots, and survivors'
  // retiring peers under a contraction) wait for signals only — a retiring
  // machine still executes its send directives and MigEnd markers, then
  // finalizes by dropping everything. All slots ack, keeping the whole
  // allocation in epoch lockstep behind the controller's barrier.
  if (config_.machine_index < to_layout_.J()) {
    migend_pending_ = static_cast<int64_t>(
                          plan_->ExpectedSenders(config_.machine_index).size()) -
                      early_migend_;
    early_migend_ = 0;
  } else {
    migend_pending_ = 0;
  }
  // "Send tau for migration" (line 3). Every machine of the *old* grid with
  // directives sends — under a contraction that includes the retirees, whose
  // entire state moves to the survivors. (The function is a no-op for
  // machines outside the from grid.)
  SendOldStateForMigration(ctx);
}

void JoinerCore::SendOldStateForMigration(Context& ctx) {
  if (config_.machine_index >= plan_->from().J()) return;  // new machine
  const auto& directives = plan_->SendsOf(config_.machine_index);
  if (directives.empty()) return;
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    Rel rel = static_cast<Rel>(rel_i);
    uint32_t parts =
        rel == Rel::kR ? to_layout_.mapping().n : to_layout_.mapping().m;
    const auto& entries = entries_[static_cast<size_t>(rel_i)];
    for (size_t id = 0; id < entries.size(); ++id) {
      const StoredEntry& entry = entries[id];
      if (entry.origin() != kOriginData) continue;  // early µ is not our state
      uint32_t part = PartitionOf(entry.tag, parts);
      for (const SendDirective& d : directives) {
        if (d.rel != rel || d.part != part) continue;
        Envelope mig;
        mig.type = MsgType::kMigrate;
        mig.rel = rel;
        mig.key = entry.key;
        mig.tag = entry.tag;
        mig.seq = entry.seq;
        mig.bytes = entry.bytes;
        mig.epoch = old_epoch_;
        mig.group = config_.group;
        if (entry.has_row()) {
          mig.has_row = true;
          mig.row = rows_[static_cast<size_t>(rel_i)][id];
        }
        metrics_.mig_out_tuples++;
        metrics_.mig_out_bytes += entry.bytes;
        ctx.Send(config_.joiner_task_base + static_cast<int>(d.target),
                 std::move(mig));
      }
    }
  }
}

void JoinerCore::ForwardPerDirectives(const Envelope& msg, Context& ctx) {
  // Δ tuple: forward to migration targets whose partition filter matches
  // (Alg. 3 lines 19-20).
  const auto& directives = plan_->SendsOf(config_.machine_index);
  if (directives.empty()) return;
  uint32_t parts =
      msg.rel == Rel::kR ? to_layout_.mapping().n : to_layout_.mapping().m;
  uint32_t part = PartitionOf(msg.tag, parts);
  for (const SendDirective& d : directives) {
    if (d.rel != msg.rel || d.part != part) continue;
    SendMigrateTuple(msg, d.target, ctx);
  }
}

void JoinerCore::SendMigrateTuple(const Envelope& src, uint32_t target_machine,
                                  Context& ctx) {
  Envelope mig = src;
  mig.type = MsgType::kMigrate;
  mig.epoch = old_epoch_;
  metrics_.mig_out_tuples++;
  metrics_.mig_out_bytes += src.bytes;
  ctx.Send(config_.joiner_task_base + static_cast<int>(target_machine),
           std::move(mig));
}

void JoinerCore::MaybeFinalize(Context& ctx) {
  if (!migrating_) return;
  if (signals_seen_ < config_.num_reshufflers) return;
  if (config_.machine_index < to_layout_.J() && migend_pending_ > 0) return;
  FinalizeMigration(ctx);
}

void JoinerCore::FinalizeMigration(Context& ctx) {
  // tau <- Keep(tau ∪ Δ) ∪ µ ∪ Δ' (Alg. 3 line 29): physically drop Discard
  // entries, reset labels, rebuild indexes.
  for (size_t rel_i = 0; rel_i < 2; ++rel_i) {
    const Rel rel = static_cast<Rel>(rel_i);
    auto& entries = entries_[rel_i];
    auto& rows = rows_[rel_i];
    size_t kept = 0;
    uint64_t dropped = 0, dropped_bytes = 0;
    for (size_t id = 0; id < entries.size(); ++id) {
      StoredEntry entry = entries[id];
      if (config_.machine_index < to_layout_.J() &&
          to_layout_.Owns(config_.machine_index, rel, entry.tag)) {
        entry.epoch_word =
            EpochWord(entry.epoch(), kOriginData, entry.has_row());
        entries[kept] = entry;
        // (A self-move would empty the row.)
        if (!rows.empty() && kept != id) rows[kept] = std::move(rows[id]);
        ++kept;
      } else {
        ++dropped;
        dropped_bytes += entry.bytes;
      }
    }
    entries.resize(kept);
    if (!rows.empty()) rows.resize(kept);
    metrics_.NoteDropped(dropped, dropped_bytes);
    RebuildIndex(rel_i);
  }
  const bool was_participating = participating();
  layout_ = to_layout_;
  epoch_ = new_epoch_;
  migrating_ = false;
  signals_seen_ = 0;
  plan_.reset();
  migend_pending_ = 0;
  metrics_.migrations_finalized++;
  if (config_.trace != nullptr) {
    config_.trace->Record(TraceEventKind::kMigrationFinalize, ctx.self(),
                          ctx.NowMicros(), epoch_, config_.group);
    // Slot lifecycle events: this joiner joined (expansion child) or left
    // (contraction retiree) the active grid at this epoch boundary.
    if (participating() != was_participating) {
      config_.trace->Record(participating() ? TraceEventKind::kScaleGrow
                                            : TraceEventKind::kScaleShrink,
                            ctx.self(), ctx.NowMicros(), epoch_,
                            config_.machine_index);
    }
  }
  // Every slot acks — dormant trackers and contraction retirees included —
  // so the controller's barrier keeps the whole allocation in epoch
  // lockstep (see ControllerCore::DecideGroup).
  Envelope ack;
  ack.type = MsgType::kMigAck;
  ack.group = config_.group;
  ack.espec.group = config_.group;
  ack.espec.epoch = epoch_;
  ctx.Send(config_.controller_task, std::move(ack));
  // A migration that was in flight when the last EOS arrived deferred the
  // downstream EOS forward to this point.
  MaybeForwardEos(ctx);
}

void JoinerCore::HandleEos(Context& ctx) {
  ++eos_seen_;
  MaybeForwardEos(ctx);
}

void JoinerCore::MaybeForwardEos(Context& ctx) {
  // Forward one kEos downstream when this slot is finished (every
  // reshuffler drained, no migration in flight), so a cascade tail — a
  // downstream stage's expected-EOS gate — can detect drainage. Safe even
  // though a migration might still be *decided* after our last EOS: such a
  // migration has an empty Δ' everywhere (a reshuffler that switched before
  // its EOS would have delivered its signal first on the same FIFO edge),
  // so it can emit no results. A migration in flight right now defers the
  // forward to FinalizeMigration.
  if (eos_forwarded_ || config_.result_sink < 0 || !finished()) return;
  eos_forwarded_ = true;
  if (!egress_.empty()) FlushEgress(ctx);
  Envelope eos;
  eos.type = MsgType::kEos;
  ctx.Send(config_.result_sink, std::move(eos));
}

// ---------------------------------------------------------------------------
// Load shedding (overload survival)
// ---------------------------------------------------------------------------

bool JoinerCore::AdmitProbe() {
  if (shed_rate_ppm_ >= kShedExactPpm) return true;
  // Integer-exact Bernoulli(rate/1e6) draw from the per-slot deterministic
  // stream; a skipped probe is counted but its tuple is stored normally.
  if (shed_rng_.Uniform(static_cast<uint64_t>(kShedExactPpm)) <
      shed_rate_ppm_) {
    return true;
  }
  metrics_.shed_probes_skipped++;
  return false;
}

void JoinerCore::HandleShed(Envelope& msg, Context& ctx) {
  // Admission-rate change. Every reshuffler forwards the operator's kShed
  // to every allocated joiner so the new rate serializes behind each data
  // edge, which means each request arrives num_reshufflers times, and after
  // back-to-back requests a slow edge can deliver an older request's copy
  // after a newer one. Only a copy with a higher request number (seq) than
  // the last applied one counts; trace only an actual rate change. Clamped
  // to [1, kShedExactPpm]: probability zero would make the
  // Horvitz-Thompson weight infinite.
  if (msg.seq <= shed_seq_) return;
  shed_seq_ = msg.seq;
  const uint32_t rate = static_cast<uint32_t>(
      std::min<int64_t>(std::max<int64_t>(msg.key, 1), kShedExactPpm));
  if (rate == shed_rate_ppm_) return;
  const uint32_t prev = shed_rate_ppm_;
  shed_rate_ppm_ = rate;
  shed_weight_ = static_cast<double>(kShedExactPpm) / rate;
  if (config_.trace != nullptr) {
    const TraceEventKind kind =
        prev >= kShedExactPpm    ? TraceEventKind::kShedEnter
        : rate >= kShedExactPpm  ? TraceEventKind::kShedExit
                                 : TraceEventKind::kShedRateChange;
    config_.trace->Record(kind, ctx.self(), ctx.NowMicros(), rate, prev);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / restore (fault-tolerance hooks, paper section 4.3.3)
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kSnapshotMagic = 0x414a534eu;  // "AJSN"
constexpr uint16_t kSnapshotVersion = 1;

template <typename T>
void PutRaw(T v, std::vector<uint8_t>* out) {
  size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}

template <typename T>
bool GetRaw(const std::vector<uint8_t>& buf, size_t* offset, T* v) {
  if (*offset + sizeof(T) > buf.size()) return false;
  std::memcpy(v, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

Status JoinerCore::SnapshotState(std::vector<uint8_t>* out) const {
  if (migrating_) {
    return Status::FailedPrecondition("cannot snapshot during a migration");
  }
  PutRaw(kSnapshotMagic, out);
  PutRaw(kSnapshotVersion, out);
  PutRaw(epoch_, out);
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    const auto& entries = entries_[static_cast<size_t>(rel_i)];
    const auto& rows = rows_[static_cast<size_t>(rel_i)];
    PutRaw<uint64_t>(entries.size(), out);
    for (size_t id = 0; id < entries.size(); ++id) {
      const StoredEntry& entry = entries[id];
      PutRaw(entry.key, out);
      PutRaw(entry.tag, out);
      PutRaw(entry.seq, out);
      PutRaw(entry.bytes, out);
      PutRaw(entry.epoch(), out);
      PutRaw<uint8_t>(entry.has_row() ? 1 : 0, out);
      if (entry.has_row()) SerializeRow(rows[id], out);
    }
  }
  return Status::OK();
}

Status JoinerCore::RestoreState(const std::vector<uint8_t>& buf) {
  if (migrating_) {
    return Status::FailedPrecondition("cannot restore during a migration");
  }
  size_t offset = 0;
  uint32_t magic;
  uint16_t version;
  uint32_t epoch;
  if (!GetRaw(buf, &offset, &magic) || magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  if (!GetRaw(buf, &offset, &version) || version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  if (!GetRaw(buf, &offset, &epoch)) {
    return Status::InvalidArgument("truncated snapshot header");
  }
  // The recovered operator restarts its epoch numbering at 0 (reshufflers
  // and controller are fresh), so entry epochs are normalized on the way in.
  (void)epoch;
  std::vector<StoredEntry> restored[2];
  std::vector<Row> restored_rows[2];
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    uint64_t count;
    if (!GetRaw(buf, &offset, &count)) {
      return Status::InvalidArgument("truncated entry count");
    }
    restored[rel_i].reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      StoredEntry entry;
      uint32_t entry_epoch = 0;  // read past: restored entries restart at 0
      uint8_t has_row;
      if (!GetRaw(buf, &offset, &entry.key) ||
          !GetRaw(buf, &offset, &entry.tag) ||
          !GetRaw(buf, &offset, &entry.seq) ||
          !GetRaw(buf, &offset, &entry.bytes) ||
          !GetRaw(buf, &offset, &entry_epoch) ||
          !GetRaw(buf, &offset, &has_row)) {
        return Status::InvalidArgument("truncated snapshot entry");
      }
      entry.epoch_word = EpochWord(0, kOriginData, has_row != 0);
      Row row;
      if (has_row != 0) {
        auto parsed = DeserializeRow(buf, &offset);
        if (!parsed.ok()) return parsed.status();
        row = parsed.take();
      }
      AppendRowSlot(&restored_rows[rel_i], restored[rel_i].size(),
                    has_row != 0 ? &row : nullptr);
      restored[rel_i].push_back(entry);
    }
  }
  // Commit: replace state, rebuild indexes, reset storage accounting.
  metrics_.stored_tuples = 0;
  metrics_.stored_bytes = 0;
  for (size_t rel_i = 0; rel_i < 2; ++rel_i) {
    entries_[rel_i] = std::move(restored[rel_i]);
    rows_[rel_i] = std::move(restored_rows[rel_i]);
    RebuildIndex(rel_i);
    for (const StoredEntry& entry : entries_[rel_i]) {
      metrics_.NoteStored(entry.bytes);
    }
  }
  epoch_ = 0;
  return Status::OK();
}

}  // namespace ajoin
