// End-to-end correctness of the adaptive operator on the deterministic
// engine: the emitted (r_seq, s_seq) pairs must equal the reference join
// exactly — no duplicates, no misses — across migrations, skew, arrival
// orders, group decompositions, and elastic expansions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/core/driver.h"
#include "src/core/operator.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

struct SyntheticStream {
  std::vector<StreamTuple> tuples;  // in arrival order
};

// Builds an interleaved two-relation stream with keys in [0, key_domain).
// skew_to_one concentrates S keys on key 0 with the given probability.
SyntheticStream MakeStream(uint64_t n_r, uint64_t n_s, int64_t key_domain,
                           uint64_t seed, double skew_to_zero = 0.0,
                           bool r_first = false) {
  SyntheticStream out;
  Rng rng(seed);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    bool pick_r;
    if (r_first) {
      pick_r = left_r > 0;
    } else {
      pick_r = left_r > 0 &&
               (left_s == 0 || rng.Uniform(left_r + left_s) < left_r);
    }
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    if (skew_to_zero > 0.0 && rng.NextBool(skew_to_zero)) {
      t.key = 0;
    } else {
      t.key = static_cast<int64_t>(rng.Uniform(
          static_cast<uint64_t>(key_domain)));
    }
    t.bytes = 16;
    out.tuples.push_back(t);
    if (pick_r) {
      --left_r;
    } else {
      --left_s;
    }
  }
  return out;
}

// Reference pairs keyed by arrival sequence number.
std::vector<std::pair<uint64_t, uint64_t>> ReferencePairs(
    const SyntheticStream& stream, const JoinSpec& spec) {
  std::vector<std::pair<uint64_t, int64_t>> rs, ss;  // (seq, key)
  for (uint64_t seq = 0; seq < stream.tuples.size(); ++seq) {
    const StreamTuple& t = stream.tuples[seq];
    if (t.rel == Rel::kR) {
      rs.emplace_back(seq, t.key);
    } else {
      ss.emplace_back(seq, t.key);
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (auto [rseq, rkey] : rs) {
    for (auto [sseq, skey] : ss) {
      bool match = false;
      if (spec.kind == JoinSpec::Kind::kEqui) {
        match = rkey == skey;
      } else if (spec.kind == JoinSpec::Kind::kBand) {
        int64_t d = rkey - skey;
        match = d >= spec.band_lo && d <= spec.band_hi;
      }
      if (match) out.emplace_back(rseq, sseq);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct RunSpec {
  uint32_t machines = 8;
  bool adaptive = true;
  double epsilon = 1.0;
  uint32_t max_expansions = 0;
  uint64_t max_tuples_per_joiner = 0;
  bool drain_per_tuple = false;
  bool barrier = false;
  uint64_t checkpoint_every = 64;
  uint32_t ingress_batch = 1;
};

// Runs the stream through a JoinOperator on SimEngine and returns pairs.
std::vector<std::pair<uint64_t, uint64_t>> RunOperator(
    const SyntheticStream& stream, const JoinSpec& spec, const RunSpec& rs,
    uint64_t* migrations = nullptr) {
  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = rs.machines;
  cfg.adaptive = rs.adaptive;
  cfg.epsilon = rs.epsilon;
  cfg.min_total_before_adapt = 8;
  cfg.barrier_migrations = rs.barrier;
  cfg.max_expansions = rs.max_expansions;
  cfg.max_tuples_per_joiner = rs.max_tuples_per_joiner;
  cfg.collect_pairs = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  op.SetIngressBatch(rs.ingress_batch);
  uint64_t pushed = 0;
  for (const StreamTuple& t : stream.tuples) {
    op.Push(t);
    ++pushed;
    if (rs.drain_per_tuple) engine.WaitQuiescent();
    if (rs.barrier && pushed % rs.checkpoint_every == 0) {
      op.Checkpoint();
      engine.WaitQuiescent();
    }
  }
  op.SendEos();
  engine.WaitQuiescent();
  if (migrations != nullptr) {
    migrations[0] = op.controller() != nullptr
                        ? op.controller()->log().size()
                        : 0;
  }
  return op.CollectPairs();
}

TEST(OperatorSim, EquiJoinExactSmall) {
  SyntheticStream stream = MakeStream(40, 60, 10, 1);
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto got = RunOperator(stream, spec, RunSpec{});
  EXPECT_EQ(got, ReferencePairs(stream, spec));
}

TEST(OperatorSim, EquiJoinAdaptiveLopsided) {
  // R tiny, S huge: the controller must migrate towards (1, J).
  SyntheticStream stream = MakeStream(20, 2000, 16, 2);
  JoinSpec spec = MakeEquiJoin(0, 0);
  uint64_t migrations = 0;
  auto got = RunOperator(stream, spec, RunSpec{.machines = 16}, &migrations);
  EXPECT_EQ(got, ReferencePairs(stream, spec));
  EXPECT_GE(migrations, 1u) << "expected at least one migration";
}

TEST(OperatorSim, EquiJoinManySeeds) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (uint64_t seed = 10; seed < 18; ++seed) {
    SyntheticStream stream = MakeStream(150 + seed * 13, 150 + seed * 29, 25,
                                        seed);
    auto got = RunOperator(stream, spec,
                           RunSpec{.machines = 8, .epsilon = 0.5});
    EXPECT_EQ(got, ReferencePairs(stream, spec)) << "seed " << seed;
  }
}

TEST(OperatorSim, BandJoinExact) {
  SyntheticStream stream = MakeStream(120, 400, 50, 3);
  JoinSpec spec = MakeBandJoin(0, 0, -2, 2);
  uint64_t migrations = 0;
  auto got = RunOperator(stream, spec, RunSpec{.machines = 8}, &migrations);
  EXPECT_EQ(got, ReferencePairs(stream, spec));
}

TEST(OperatorSim, SkewedKeysStillExact) {
  SyntheticStream stream = MakeStream(200, 800, 30, 4, /*skew_to_zero=*/0.6);
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto got = RunOperator(stream, spec, RunSpec{.machines = 16});
  EXPECT_EQ(got, ReferencePairs(stream, spec));
}

TEST(OperatorSim, RFirstArrivalOrder) {
  // All of R arrives, then all of S: maximal cardinality imbalance both ways.
  SyntheticStream stream = MakeStream(300, 300, 20, 5, 0.0, /*r_first=*/true);
  JoinSpec spec = MakeEquiJoin(0, 0);
  uint64_t migrations = 0;
  auto got = RunOperator(stream, spec, RunSpec{.machines = 8}, &migrations);
  EXPECT_EQ(got, ReferencePairs(stream, spec));
  EXPECT_GE(migrations, 1u);
}

TEST(OperatorSim, StaticOperatorExact) {
  SyntheticStream stream = MakeStream(200, 500, 15, 6);
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto got = RunOperator(stream, spec,
                         RunSpec{.machines = 16, .adaptive = false});
  EXPECT_EQ(got, ReferencePairs(stream, spec));
}

TEST(OperatorSim, EpsilonVariantsExact) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (double eps : {1.0, 0.5, 0.25, 0.125}) {
    SyntheticStream stream = MakeStream(250, 900, 12, 7);
    uint64_t migrations = 0;
    auto got = RunOperator(stream, spec,
                           RunSpec{.machines = 8, .epsilon = eps},
                           &migrations);
    EXPECT_EQ(got, ReferencePairs(stream, spec)) << "eps " << eps;
  }
}

TEST(OperatorSim, MultiGroupNonPowerOfTwo) {
  // J = 12 -> groups {8, 4}; J = 20 -> {16, 4}. Barrier migrations +
  // per-tuple drains (deterministic ordered delivery).
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (uint32_t j : {3u, 6u, 12u, 20u}) {
    SyntheticStream stream = MakeStream(80, 240, 10, 40 + j);
    auto got = RunOperator(stream, spec,
                           RunSpec{.machines = j,
                                   .drain_per_tuple = true,
                                   .barrier = true,
                                   .checkpoint_every = 32});
    EXPECT_EQ(got, ReferencePairs(stream, spec)) << "J " << j;
  }
}

TEST(OperatorSim, IngressBatchedRunsMatchReference) {
  // Ingress batches reach a reshuffler as one send unit, so its routed runs
  // give the joiners multi-tuple batches: relation-grouped probe/store
  // runs, live migrations on the per-envelope Δ/Δ' path, and — in
  // multi-group operators, where every tuple is stored in one group and
  // probe-only in the others — runs cut at probe-only tuples.
  for (uint32_t batch : {16u, 64u}) {
    for (const JoinSpec& spec :
         {MakeEquiJoin(0, 0), MakeBandJoin(0, 0, -2, 2)}) {
      SyntheticStream stream = MakeStream(150, 1200, 30, 60 + batch);
      uint64_t migrations = 0;
      auto got = RunOperator(stream, spec,
                             RunSpec{.machines = 8,
                                     .epsilon = 0.25,
                                     .ingress_batch = batch},
                             &migrations);
      EXPECT_EQ(got, ReferencePairs(stream, spec))
          << spec.name << " batch " << batch;
      EXPECT_GE(migrations, 1u) << spec.name << " batch " << batch;
    }
    const JoinSpec spec = MakeEquiJoin(0, 0);
    for (uint32_t j : {3u, 6u, 12u, 20u}) {
      SyntheticStream stream = MakeStream(200, 600, 10, 80 + j);
      auto got = RunOperator(stream, spec,
                             RunSpec{.machines = j,
                                     .barrier = true,
                                     .checkpoint_every = 128,
                                     .ingress_batch = batch});
      EXPECT_EQ(got, ReferencePairs(stream, spec))
          << "J " << j << " batch " << batch;
    }
  }
}

TEST(OperatorSim, ElasticExpansionExact) {
  // Low per-joiner capacity forces expansions; output must stay exact.
  SyntheticStream stream = MakeStream(400, 1200, 18, 9);
  JoinSpec spec = MakeEquiJoin(0, 0);
  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 8;
  cfg.collect_pairs = true;
  cfg.max_expansions = 2;             // 4 -> 16 -> 64 machines possible
  cfg.max_tuples_per_joiner = 300;    // expand when > 150 expected per joiner
  JoinOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : stream.tuples) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.CollectPairs(), ReferencePairs(stream, spec));
  uint64_t expansions = 0;
  for (const MigrationRecord& rec : op.controller()->log()) {
    if (rec.expansion) ++expansions;
  }
  EXPECT_GE(expansions, 1u) << "expected at least one elastic expansion";
}

TEST(OperatorSim, ShjBaselineExact) {
  SyntheticStream stream = MakeStream(150, 450, 12, 11);
  JoinSpec spec = MakeEquiJoin(0, 0);
  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 8;
  cfg.collect_pairs = true;
  ShjOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : stream.tuples) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.CollectPairs(), ReferencePairs(stream, spec));
}

TEST(OperatorSim, MigrationsActuallyMoveState) {
  // After a (n,m) -> (n/2,2m) style convergence the per-joiner storage must
  // reflect the new mapping: with R tiny the mapping converges to (1, J) and
  // every joiner stores all of R.
  SyntheticStream stream = MakeStream(16, 4000, 8, 12);
  JoinSpec spec = MakeEquiJoin(0, 0);
  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 16;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 8;
  cfg.collect_pairs = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : stream.tuples) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  ASSERT_EQ(op.CollectPairs(), ReferencePairs(stream, spec));
  ASSERT_NE(op.controller(), nullptr);
  EXPECT_EQ(op.controller()->current_mapping(0), (Mapping{1, 16}));
  // Under (1,16) every joiner holds the full R relation.
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    EXPECT_EQ(op.joiner(i).stored_count(Rel::kR), 16u) << "joiner " << i;
  }
}

}  // namespace
}  // namespace ajoin
