// The paper's EQ5 as a streaming cascade: only the tiny Region |X| Nation
// seed is computed locally; the remaining joins — (R|X|N) |X| Supplier and
// the expensive |X| Lineitem — run as a three-stage Dataflow, stage A's
// joiner egress streaming straight into stage B's reshufflers and stage
// B's result stream straight into a group-by tail (per-supplier revenue
// proxy: COUNT/SUM over result bytes, keyed by s_suppkey). No intermediate
// relation is materialized (contrast with the Squall pattern
// reference/pipeline.h implements, where every intermediate is realized
// before online processing), and the adaptive controller migrates mappings
// live in every stage — join and aggregate alike.
//
// Usage: example_tpch_pipeline [telemetry.json]
// With a path argument the run also ticks a ControlLoop (no policies
// attached: sampling only) at drain intervals and exports the series as
// structured telemetry JSON (the CI agg smoke feeds this to
// tools/validate_telemetry.py --require-agg-tasks).

#include <cstdio>
#include <memory>

#include "reference/pipeline.h"
#include "src/core/control_loop.h"
#include "src/datagen/tpch.h"
#include "src/query/dataflow.h"
#include "src/sim/sim_engine.h"

using namespace ajoin;

int main(int argc, char** argv) {
  const char* telemetry_path = argc > 1 ? argv[1] : nullptr;
  TpchConfig cfg;
  cfg.gb = 1.0;
  cfg.lineitem_rows_per_gb = 50000;
  cfg.zipf_z = 0.5;  // skewed supplier foreign keys
  TpchGen gen(cfg);

  // Stage 0 (local, tiny): Region(one region) |X| Nation.
  MaterializedRelation region =
      Scan("region", kNumRegions,
           [](uint64_t i) {
             Row row;
             row.Append(Value(static_cast<int64_t>(i)));
             return row;
           },
           [](const Row& row) { return row.Int64(0) == 0; });
  MaterializedRelation nation =
      Scan("nation", kNumNations, [&gen](uint64_t i) { return gen.Nation(i); });
  MaterializedRelation rn =
      LocalJoin(region, nation,
                MakeEquiJoin(/*r_key_col=*/0, NationCols::kRegionKey),
                "region_nation");
  std::printf("stage 0 (local): Region |X| Nation -> %llu rows\n",
              static_cast<unsigned long long>(rn.size()));

  // Stages 1+2 (distributed, streaming): the dimension join feeds the
  // expensive probe join online — no materialized intermediate.
  SimEngine engine;
  Dataflow flow(engine);
  MetricsRegistry registry;
  flow.SetTelemetry(&registry, nullptr);
  OperatorConfig a_cfg;
  a_cfg.spec = MakeEquiJoin(/*r_key_col=*/1, SupplierCols::kNationKey, "RN_S");
  a_cfg.machines = 4;
  a_cfg.adaptive = true;
  a_cfg.min_total_before_adapt = 16;
  a_cfg.keep_rows = true;  // stage B keys on a result-row column
  const int dim = flow.AddJoin(a_cfg);
  OperatorConfig b_cfg;
  b_cfg.spec = MakeEquiJoin(/*r_key_col=*/3, LineitemCols::kSuppKey, "EQ5");
  b_cfg.machines = 16;
  b_cfg.adaptive = true;
  b_cfg.min_total_before_adapt = 512;
  b_cfg.keep_rows = false;
  const int probe = flow.AddJoin(b_cfg);
  // Stage 3: group the EQ5 result stream by supplier. Defaults aggregate
  // (envelope key = the stage-B join key s_suppkey, value = result bytes),
  // so the skew the probe join fights also lands on the aggregate workers
  // and the group-by controller migrates accumulator cells live.
  AggConfig g_cfg;
  g_cfg.machines = 8;
  g_cfg.min_total_before_adapt = 512;
  g_cfg.check_every = 256;
  const int per_supp = flow.AddGroupBy(g_cfg);
  ResultSink::Options sink_opts;
  sink_opts.collect_pairs = false;
  sink_opts.collect_rows = true;  // aggregate rows, foldable via FoldAggRows
  const int out = flow.AddSink(sink_opts);
  Dataflow::ConnectOptions wire;
  wire.rel = Rel::kR;
  wire.key_col = 3;  // s_suppkey inside the stage-A result row
  flow.Connect(dim, probe, wire);
  flow.Connect(probe, per_supp);
  flow.Connect(per_supp, out);
  engine.Start();

  std::unique_ptr<ControlLoop> loop;
  if (telemetry_path != nullptr) {
    loop = std::make_unique<ControlLoop>(&registry);
  }

  for (const Row& row : rn.rows) {
    StreamTuple t;
    t.rel = Rel::kR;
    t.key = row.Int64(1);  // n_nationkey
    t.bytes = 24;
    t.has_row = true;
    t.row = row;
    flow.join(dim).Push(t);
  }
  const uint64_t n_sup = cfg.NumSuppliers();
  for (uint64_t i = 0; i < n_sup; ++i) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = gen.SupplierNation(i);
    t.bytes = 24;
    t.has_row = true;
    t.row = gen.Supplier(i);
    flow.join(dim).Push(t);
  }
  const uint64_t n_li = cfg.NumLineitem();
  for (uint64_t i = 0; i < n_li; ++i) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = gen.LineitemFast(i).suppkey;
    t.bytes = 32;
    flow.join(probe).Push(t);
    if (i % 512 == 0) {
      engine.WaitQuiescent();
      if (loop) loop->TickNow(i);  // sim path: logical time = rows
    }
  }
  flow.SendEos();
  engine.WaitQuiescent();
  if (loop) loop->TickNow(n_li + 1);

  std::printf("stage 1 (streaming): |X| Supplier (%llu) -> %llu results, "
              "%zu migrations\n",
              static_cast<unsigned long long>(n_sup),
              static_cast<unsigned long long>(flow.join(dim).TotalOutputs()),
              flow.join(dim).controller()->log().size());
  std::printf("stage 2 (streaming): |X| Lineitem (%llu rows, Zipf z=%.2f)\n",
              static_cast<unsigned long long>(n_li), cfg.zipf_z);
  std::printf("  join results:   %llu\n",
              static_cast<unsigned long long>(flow.join(probe).TotalOutputs()));
  std::printf("  final mapping:  %s after %zu migrations (started (4,4))\n",
              flow.join(probe).controller()->current_mapping(0)
                  .ToString().c_str(),
              flow.join(probe).controller()->log().size());
  std::printf("  max ILF:        %.0f KB per joiner\n",
              static_cast<double>(flow.join(probe).MaxInBytes()) / 1024.0);
  const std::vector<AggResult> per_supplier = FoldAggRows(flow.sink(out).rows());
  uint64_t agg_tuples = 0;
  for (const AggResult& g : per_supplier) {
    agg_tuples += static_cast<uint64_t>(g.acc.tuples);
  }
  std::printf("stage 3 (streaming): group by s_suppkey -> %zu groups over "
              "%llu results, %llu cell migrations\n",
              per_supplier.size(),
              static_cast<unsigned long long>(agg_tuples),
              static_cast<unsigned long long>(
                  flow.groupby(per_supp).TotalMigrations()));
  if (agg_tuples != flow.join(probe).TotalOutputs()) {
    std::printf("  MISMATCH: aggregated tuples != join results\n");
    return 1;
  }
  if (loop) {
    const bool wrote = loop->WriteJson(telemetry_path, "tpch_pipeline");
    std::printf("  wrote %s: %s\n", telemetry_path, wrote ? "ok" : "FAILED");
    if (!wrote) return 1;
  }
  return 0;
}
