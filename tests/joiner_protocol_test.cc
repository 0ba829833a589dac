// Targeted Algorithm 3 tests: a JoinerCore driven directly with crafted
// message interleavings (early µ before any signal, Δ after partial signals,
// Δ' racing migration tuples, MigEnd before signals, a stale kShed copy
// after a newer one, batch dispatch against the per-envelope loop) — orders
// a real engine may produce but tests cannot force reliably end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "src/common/trace_ring.h"
#include "src/core/joiner.h"
#include "src/core/partition.h"

namespace ajoin {
namespace {

/// Captures sends instead of dispatching them.
class CaptureContext : public Context {
 public:
  explicit CaptureContext(int self) : self_(self) {}
  int self() const override { return self_; }
  void Send(int to, Envelope msg) override {
    msg.from = self_;
    sent.emplace_back(to, std::move(msg));
  }
  uint64_t NowMicros() const override { return 0; }

  std::vector<std::pair<int, Envelope>> sent;

 private:
  int self_;
};

Envelope Data(Rel rel, int64_t key, uint64_t tag, uint64_t seq,
              uint32_t epoch) {
  Envelope env;
  env.type = MsgType::kData;
  env.rel = rel;
  env.key = key;
  env.tag = tag;
  env.seq = seq;
  env.bytes = 8;
  env.epoch = epoch;
  env.store = true;
  return env;
}

Envelope Migrate(Rel rel, int64_t key, uint64_t tag, uint64_t seq,
                 uint32_t epoch) {
  Envelope env = Data(rel, key, tag, seq, epoch);
  env.type = MsgType::kMigrate;
  return env;
}

Envelope Signal(uint32_t epoch, Mapping mapping) {
  Envelope env;
  env.type = MsgType::kReshufSignal;
  env.espec.group = 0;
  env.espec.epoch = epoch;
  env.espec.mapping = mapping;
  return env;
}

Envelope MigEnd() {
  Envelope env;
  env.type = MsgType::kMigEnd;
  return env;
}

// A 2-machine grid (2,1) -> (1,2): machine 0 = (0,0), machine 1 = (1,0).
// Row-merge: R exchanged pairwise between 0 and 1; S discarded by new col.
JoinerConfig TwoMachineConfig(uint32_t machine_index) {
  JoinerConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machine_index = machine_index;
  cfg.initial_layout = GridLayout::Initial(Mapping{2, 1});
  cfg.num_reshufflers = 2;
  cfg.controller_task = 100;
  cfg.joiner_task_base = 0;
  cfg.collect_pairs = true;
  return cfg;
}

// Tags landing in row 0 / row 1 under n=2 (top bit), and col 0 / 1 under
// m=2 after migration (same top bits reused for S column).
constexpr uint64_t kTagLow = 0x1000000000000000ULL;   // partition 0 of 2
constexpr uint64_t kTagHigh = 0x9000000000000000ULL;  // partition 1 of 2

TEST(JoinerProtocol, SteadyStateJoinAndStore) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kR, 7, kTagLow, 1, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 7, kTagLow, 2, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 8, kTagHigh, 3, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 1u);
  EXPECT_EQ(joiner.pairs()[0], (std::pair<uint64_t, uint64_t>{1, 2}));
  EXPECT_EQ(joiner.stored_count(Rel::kR), 1u);
  EXPECT_EQ(joiner.stored_count(Rel::kS), 2u);
  EXPECT_TRUE(ctx.sent.empty());
}

// A captured kResult: (seq, tag, key, bytes, weight, rel, ingest_us).
using Result =
    std::tuple<uint64_t, uint64_t, int64_t, uint32_t, double, Rel, uint64_t>;

std::vector<Result> SentResults(const CaptureContext& ctx) {
  std::vector<Result> out;
  for (const auto& [to, env] : ctx.sent) {
    if (env.type != MsgType::kResult) continue;
    out.emplace_back(env.seq, env.tag, env.key, env.bytes, env.weight, env.rel,
                     env.ingest_us);
  }
  return out;
}

TEST(JoinerProtocol, RelationGroupedBatchMatchesEnvelopeLoop) {
  // OnBatch takes a steady batch one relation at a time (the R tuples probe
  // and are stored, then the S tuples); OnMessage interleaves them in edge
  // order. Each pair is emitted by whichever of its tuples is processed
  // later, so both emit the same results — only their order and, for a
  // pair whose S tuple precedes its R tuple in one batch, the probing side
  // (the result's rel and ingest_us) may differ. The result key is the R
  // tuple's on both paths, also on band joins, where the two keys differ.
  std::map<uint64_t, int64_t> key_of;  // input seq -> key
  const auto data = [&key_of](Rel rel, int64_t key, uint64_t seq) {
    Envelope env = Data(rel, key, kTagLow, seq, 0);
    env.bytes = static_cast<uint32_t>(seq);
    env.ingest_us = 1000 + seq;
    key_of[seq] = key;
    return env;
  };
  // Duplicate keys; pairs inside one batch in both orders, and pairs across
  // batches.
  const std::vector<std::vector<Envelope>> batches = {
      {data(Rel::kR, 1, 1), data(Rel::kS, 1, 2), data(Rel::kS, 2, 3),
       data(Rel::kR, 1, 4), data(Rel::kR, 3, 5), data(Rel::kS, 1, 6),
       data(Rel::kS, 4, 7), data(Rel::kR, 2, 8)},
      {data(Rel::kS, 1, 9), data(Rel::kR, 2, 10), data(Rel::kR, 1, 11),
       data(Rel::kS, 3, 12), data(Rel::kS, 2, 13), data(Rel::kR, 4, 14)},
      {data(Rel::kS, 3, 15), data(Rel::kS, 3, 16), data(Rel::kR, 3, 17)},
  };
  // A last batch holds one probe-only tuple (a multi-group operator's
  // cross-group probe), which cuts it into two runs of stored tuples.
  std::vector<Envelope> mixed = {data(Rel::kR, 2, 18), data(Rel::kS, 1, 19),
                                 data(Rel::kS, 2, 20), data(Rel::kR, 1, 21)};
  mixed[1].store = false;
  constexpr uint64_t kProbeOnlySeq = 19;

  for (const JoinSpec& spec : {MakeEquiJoin(0, 0), MakeBandJoin(0, 0, -1, 1)}) {
    SCOPED_TRACE(spec.name);
    const bool equi = spec.kind == JoinSpec::Kind::kEqui;
    JoinerConfig cfg = TwoMachineConfig(0);
    cfg.spec = spec;
    cfg.result_sink = 50;
    JoinerCore batched(cfg);
    JoinerCore looped(cfg);
    CaptureContext batch_ctx(0);
    CaptureContext loop_ctx(0);
    const auto feed = [&](const std::vector<Envelope>& items) {
      TupleBatch batch;
      for (const Envelope& env : items) {
        batch.Add(Envelope(env));
        looped.OnMessage(env, loop_ctx);
      }
      batched.OnBatch(std::move(batch), batch_ctx);
    };
    for (const std::vector<Envelope>& items : batches) feed(items);

    EXPECT_EQ(batched.output_count(), looped.output_count());
    EXPECT_EQ(batched.output_count(), equi ? 20u : 47u);  // counted by hand
    for (const Rel rel : {Rel::kR, Rel::kS}) {
      EXPECT_EQ(batched.stored_count(rel), looped.stored_count(rel));
    }
    // (seq, tag, key, bytes, weight) multisets; every result's key is its
    // R tuple's (seq is r_seq).
    const auto multiset = [&key_of](std::vector<Result> results) {
      for (Result& res : results) {
        EXPECT_EQ(std::get<2>(res), key_of.at(std::get<0>(res)));
        std::get<5>(res) = Rel::kR;
        std::get<6>(res) = 0;
      }
      std::sort(results.begin(), results.end());
      return results;
    };
    ASSERT_EQ(SentResults(batch_ctx).size(), batched.output_count());
    EXPECT_EQ(multiset(SentResults(batch_ctx)),
              multiset(SentResults(loop_ctx)));

    // The mixed batch: the same result multiset as the loop, and the
    // probe-only tuple's pairs (s_seq = tag = 19) element for element,
    // probing side included — it probes exactly the stores that precede
    // it, R tuple 18 of its own batch among them.
    batch_ctx.sent.clear();
    loop_ctx.sent.clear();
    feed(mixed);
    const auto probe_only_pairs = [](std::vector<Result> results) {
      results.erase(std::remove_if(results.begin(), results.end(),
                                   [](const Result& res) {
                                     return std::get<1>(res) != kProbeOnlySeq;
                                   }),
                    results.end());
      return results;
    };
    EXPECT_FALSE(probe_only_pairs(SentResults(batch_ctx)).empty());
    EXPECT_EQ(probe_only_pairs(SentResults(batch_ctx)),
              probe_only_pairs(SentResults(loop_ctx)));
    EXPECT_EQ(multiset(SentResults(batch_ctx)),
              multiset(SentResults(loop_ctx)));
    EXPECT_EQ(batched.output_count(), looped.output_count());
    for (const Rel rel : {Rel::kR, Rel::kS}) {
      EXPECT_EQ(batched.stored_count(rel), looped.stored_count(rel));
    }
  }
}

TEST(JoinerProtocol, MigrationSendsTauOnFirstSignal) {
  // Machine 0 holds R row 0; on the first signal for (1,2) it must ship all
  // its R state to partner machine 1 and nothing else.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kR, 1, kTagLow, 1, 0), ctx);
  joiner.OnMessage(Data(Rel::kR, 2, kTagLow, 2, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 3, kTagLow, 3, 0), ctx);
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  EXPECT_TRUE(joiner.migrating());
  // Exactly the two R tuples migrate to machine 1.
  size_t mig = 0;
  for (auto& [to, env] : ctx.sent) {
    if (env.type == MsgType::kMigrate) {
      EXPECT_EQ(to, 1);
      EXPECT_EQ(env.rel, Rel::kR);
      ++mig;
    }
  }
  EXPECT_EQ(mig, 2u);
}

TEST(JoinerProtocol, FullMigrationLifecycleWithDiscard) {
  // Machine 0: old (0,0) holds R row 0 + all S; new coords (0,0) of (1,2):
  // keeps S col 0, receives R row-1 state as µ, discards S col 1.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kR, 1, kTagLow, 1, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 5, kTagLow, 2, 0), ctx);   // kept (col 0)
  joiner.OnMessage(Data(Rel::kS, 6, kTagHigh, 3, 0), ctx);  // discarded
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);

  // Partner's R arrives as µ; then a Δ' tuple matching it.
  joiner.OnMessage(Migrate(Rel::kR, 9, kTagHigh, 4, 0), ctx);
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 5, 1), ctx);  // Δ', joins µ
  EXPECT_EQ(joiner.output_count(), 1u);
  EXPECT_EQ(joiner.pairs()[0], (std::pair<uint64_t, uint64_t>{4, 5}));

  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);  // second reshuffler
  joiner.OnMessage(MigEnd(), ctx);                  // partner finished
  EXPECT_FALSE(joiner.migrating());
  EXPECT_EQ(joiner.epoch(), 1u);
  // Ack went to the controller.
  bool acked = false;
  for (auto& [to, env] : ctx.sent) {
    if (env.type == MsgType::kMigAck) {
      EXPECT_EQ(to, 100);
      acked = true;
    }
  }
  EXPECT_TRUE(acked);
  // S col-1 tuple was discarded; kept: tau S (seq 2) + Δ' S (seq 5).
  EXPECT_EQ(joiner.stored_count(Rel::kS), 2u);
  // R: kept tau R (n=1 keeps all rows) + µ from the partner.
  EXPECT_EQ(joiner.stored_count(Rel::kR), 2u);
}

TEST(JoinerProtocol, EarlyMuBeforeAnySignal) {
  // µ arriving before the local first signal must not join old-epoch state
  // (those pairs are produced at the partner) but must join later Δ'.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 1, 0), ctx);  // tau S
  // Early µ: partner already started migrating and ships its R.
  joiner.OnMessage(Migrate(Rel::kR, 9, kTagHigh, 2, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 0u) << "mu must not join tau here";
  // Old-epoch Δ S tuple matching the µ key: still must NOT pair with µ
  // (the partner joined it with its stored R under the old mapping).
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 3, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 0u);
  // Migration begins locally; Δ' now joins the early µ.
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(Data(Rel::kS, 9, kTagLow, 4, 1), ctx);  // Δ'
  // Δ' joins: µ (seq 2) and Keep(tau∪Δ): S entries are same-relation, so
  // only the µ R tuple matches.
  EXPECT_EQ(joiner.output_count(), 1u);
  EXPECT_EQ(joiner.pairs()[0], (std::pair<uint64_t, uint64_t>{2, 4}));
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(MigEnd(), ctx);
  EXPECT_FALSE(joiner.migrating());
}

TEST(JoinerProtocol, MigEndBeforeSignalsIsBuffered) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(MigEnd(), ctx);  // very early: partner raced ahead
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  EXPECT_TRUE(joiner.migrating());
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  // All signals + the early MigEnd: finalize must have happened.
  EXPECT_FALSE(joiner.migrating());
  EXPECT_EQ(joiner.epoch(), 1u);
}

TEST(JoinerProtocol, DeltaForwardedToPartner) {
  // Δ R tuples arriving mid-migration are forwarded to the partner.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  ctx.sent.clear();
  joiner.OnMessage(Data(Rel::kR, 4, kTagLow, 7, 0), ctx);  // Δ (old epoch)
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].first, 1);
  EXPECT_EQ(ctx.sent[0].second.type, MsgType::kMigrate);
  EXPECT_EQ(ctx.sent[0].second.seq, 7u);
}

TEST(JoinerProtocol, DeltaJoinsOldStateAndKeepJoinsDeltaPrime) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Data(Rel::kS, 3, kTagLow, 1, 0), ctx);  // tau S (kept col)
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(Data(Rel::kR, 3, kTagLow, 2, 1), ctx);  // Δ' R
  EXPECT_EQ(joiner.output_count(), 1u);  // Δ' joins Keep(tau)
  // Δ S tuple (old epoch): joins tau∪Δ (the R? no R in old state) and, being
  // in Keep, joins Δ' R.
  joiner.OnMessage(Data(Rel::kS, 3, kTagLow, 3, 0), ctx);
  EXPECT_EQ(joiner.output_count(), 2u);
  auto pairs = joiner.pairs();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs[0], (std::pair<uint64_t, uint64_t>{2, 1}));
  EXPECT_EQ(pairs[1], (std::pair<uint64_t, uint64_t>{2, 3}));
}

TEST(JoinerProtocol, DiscardedDeltaDoesNotJoinDeltaPrime) {
  // A Δ S tuple belonging to the *other* new column must not join Δ' here.
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  joiner.OnMessage(Signal(1, Mapping{1, 2}), ctx);
  joiner.OnMessage(Data(Rel::kR, 3, kTagLow, 1, 1), ctx);   // Δ' R stored
  joiner.OnMessage(Data(Rel::kS, 3, kTagHigh, 2, 0), ctx);  // Δ S, discard col
  EXPECT_EQ(joiner.output_count(), 0u)
      << "discard-bound Δ joined Δ' (would double-count with machine 1)";
}

TEST(JoinerProtocol, EosTracking) {
  JoinerCore joiner(TwoMachineConfig(0));
  CaptureContext ctx(0);
  Envelope eos;
  eos.type = MsgType::kEos;
  EXPECT_FALSE(joiner.finished());
  joiner.OnMessage(std::move(eos), ctx);
  EXPECT_FALSE(joiner.finished());  // one of two reshufflers
  Envelope eos2;
  eos2.type = MsgType::kEos;
  joiner.OnMessage(std::move(eos2), ctx);
  EXPECT_TRUE(joiner.finished());
}

Envelope Shed(uint64_t request, int64_t rate_ppm) {
  Envelope env;
  env.type = MsgType::kShed;
  env.key = rate_ppm;
  env.seq = request;
  return env;
}

TEST(JoinerProtocol, StaleShedCopyIsIgnored) {
  // Back-to-back SetShedRate calls: every reshuffler forwards a copy of
  // each request, so a slower reshuffler's copy of request 1 can reach the
  // joiner after request 2 — it must not roll the rate back.
  TraceRing trace(64);
  JoinerConfig cfg = TwoMachineConfig(0);
  cfg.trace = &trace;
  JoinerCore joiner(cfg);
  CaptureContext ctx(0);
  joiner.OnMessage(Shed(1, kShedExactPpm / 4), ctx);
  joiner.OnMessage(Shed(2, kShedExactPpm / 8), ctx);
  joiner.OnMessage(Shed(2, kShedExactPpm / 8), ctx);  // duplicate copy
  joiner.OnMessage(Shed(1, kShedExactPpm / 4), ctx);  // stale copy
  EXPECT_EQ(joiner.shed_rate_ppm(), kShedExactPpm / 8);
  const std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kShedEnter);
  EXPECT_EQ(events[1].kind, TraceEventKind::kShedRateChange);
  EXPECT_EQ(events[1].a, static_cast<uint64_t>(kShedExactPpm / 8));
}

}  // namespace
}  // namespace ajoin
