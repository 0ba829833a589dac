// Query pipeline tests: materialized intermediates computed by actual local
// joins must agree with the filter-based workload definitions, and the full
// pipeline (dimension joins -> distributed operator) must produce the
// reference result.

#include <gtest/gtest.h>

#include <set>

#include "reference/pipeline.h"
#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

TpchConfig TinyConfig() {
  TpchConfig cfg;
  cfg.gb = 1.0;
  cfg.lineitem_rows_per_gb = 4000;
  cfg.zipf_z = 0.25;
  cfg.seed = 11;
  return cfg;
}

TEST(Pipeline, ScanFilterProject) {
  MaterializedRelation rel = Scan(
      "numbers", 100,
      [](uint64_t i) {
        Row row;
        row.Append(Value(static_cast<int64_t>(i)));
        row.Append(Value(static_cast<int64_t>(i * 2)));
        return row;
      },
      [](const Row& row) { return row.Int64(0) % 2 == 0; });
  EXPECT_EQ(rel.size(), 50u);
  MaterializedRelation small =
      Filter(rel, [](const Row& row) { return row.Int64(0) < 10; });
  EXPECT_EQ(small.size(), 5u);
  MaterializedRelation proj = Project(small, {1});
  EXPECT_EQ(proj.rows[0].num_values(), 1u);
  EXPECT_EQ(proj.rows[2].Int64(0), 8);
}

TEST(Pipeline, LocalJoinConcatenatesRows) {
  auto make = [](std::initializer_list<int64_t> keys) {
    MaterializedRelation rel;
    for (int64_t k : keys) {
      Row row;
      row.Append(Value(k));
      row.Append(Value(k * 10));
      rel.rows.push_back(std::move(row));
    }
    return rel;
  };
  MaterializedRelation left = make({1, 2, 3});
  MaterializedRelation right = make({2, 3, 3, 4});
  MaterializedRelation joined =
      LocalJoin(left, right, MakeEquiJoin(0, 0), "t");
  EXPECT_EQ(joined.size(), 3u);  // 2-2, 3-3, 3-3
  for (const Row& row : joined.rows) {
    ASSERT_EQ(row.num_values(), 4u);
    EXPECT_EQ(row.Int64(0), row.Int64(2));  // keys equal across sides
  }
}

TEST(Pipeline, Eq5IntermediateMatchesWorkloadDefinition) {
  TpchConfig cfg = TinyConfig();
  TpchGen gen(cfg);
  MaterializedRelation rns = BuildEq5SupplierSide(gen);
  // The workload builds the same side by filtering suppliers directly.
  Workload w(QueryId::kEQ5, cfg);
  EXPECT_EQ(rns.size(), w.r_count());
  // Same supplier keys.
  std::set<int64_t> pipeline_keys, workload_keys;
  for (const Row& row : rns.rows) pipeline_keys.insert(row.Int64(0));
  auto source = w.MakeSource(ArrivalPolicy{});
  StreamTuple t;
  while (source->Next(&t)) {
    if (t.rel == Rel::kR) workload_keys.insert(t.key);
  }
  EXPECT_EQ(pipeline_keys, workload_keys);
}

TEST(Pipeline, Eq7IntermediateMatchesWorkloadDefinition) {
  TpchConfig cfg = TinyConfig();
  TpchGen gen(cfg);
  MaterializedRelation sn = BuildEq7SupplierSide(gen);
  Workload w(QueryId::kEQ7, cfg);
  EXPECT_EQ(sn.size(), w.r_count());
}

TEST(Pipeline, FullEq5ThroughDistributedOperator) {
  // Dimension joins feed the adaptive operator; the result count must match
  // a direct nested-loop over the same inputs.
  TpchConfig cfg = TinyConfig();
  TpchGen gen(cfg);
  MaterializedRelation rns = BuildEq5SupplierSide(gen);

  SimEngine engine;
  OperatorConfig oc;
  oc.spec = MakeEquiJoin(/*r_key_col=*/0, LineitemCols::kSuppKey, "EQ5");
  oc.machines = 8;
  oc.adaptive = true;
  oc.min_total_before_adapt = 64;
  oc.keep_rows = true;
  JoinOperator op(engine, oc);
  engine.Start();

  for (const Row& row : rns.rows) {
    StreamTuple t;
    t.rel = Rel::kR;
    t.key = row.Int64(0);
    t.bytes = 32;
    t.has_row = true;
    t.row = row;
    op.Push(t);
    engine.WaitQuiescent();
  }
  uint64_t expected = 0;
  std::set<int64_t> supp_keys;
  for (const Row& row : rns.rows) supp_keys.insert(row.Int64(0));
  for (uint64_t i = 0; i < cfg.NumLineitem(); ++i) {
    Row li = gen.Lineitem(i);
    if (supp_keys.count(li.Int64(LineitemCols::kSuppKey)) > 0) ++expected;
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = li.Int64(LineitemCols::kSuppKey);
    t.bytes = 32;
    t.has_row = true;
    t.row = std::move(li);
    op.Push(t);
    engine.WaitQuiescent();
  }
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.TotalOutputs(), expected);
}

}  // namespace
}  // namespace ajoin
