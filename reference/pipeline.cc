#include "reference/pipeline.h"

#include "reference/local_join.h"

namespace ajoin {

MaterializedRelation Scan(std::string name, uint64_t count,
                          const std::function<Row(uint64_t)>& gen,
                          const std::function<bool(const Row&)>& filter) {
  MaterializedRelation out;
  out.name = std::move(name);
  for (uint64_t i = 0; i < count; ++i) {
    Row row = gen(i);
    if (!filter || filter(row)) out.rows.push_back(std::move(row));
  }
  return out;
}

MaterializedRelation Filter(const MaterializedRelation& input,
                            const std::function<bool(const Row&)>& pred) {
  MaterializedRelation out;
  out.name = input.name + "_filtered";
  for (const Row& row : input.rows) {
    if (pred(row)) out.rows.push_back(row);
  }
  return out;
}

MaterializedRelation LocalJoin(const MaterializedRelation& left,
                               const MaterializedRelation& right,
                               const JoinSpec& spec, std::string name) {
  MaterializedRelation out;
  out.name = std::move(name);
  LocalJoiner joiner(spec);
  // Stream the smaller side first (build), probe with the larger: both
  // orders are correct for a symmetric join; this one wastes less memory.
  const bool left_small = left.rows.size() <= right.rows.size();
  const MaterializedRelation& build = left_small ? left : right;
  const MaterializedRelation& probe = left_small ? right : left;
  const Rel build_rel = left_small ? Rel::kR : Rel::kS;
  for (const Row& row : build.rows) joiner.Store(build_rel, row);
  for (const Row& row : probe.rows) {
    joiner.Probe(Opposite(build_rel), row, [&](const Row& r, const Row& s) {
      Row combined;
      combined.AppendAll(r);
      combined.AppendAll(s);
      out.rows.push_back(std::move(combined));
    });
  }
  return out;
}

MaterializedRelation Project(const MaterializedRelation& input,
                             const std::vector<int>& columns) {
  MaterializedRelation out;
  out.name = input.name + "_proj";
  out.rows.reserve(input.rows.size());
  for (const Row& row : input.rows) {
    Row projected;
    for (int c : columns) {
      projected.Append(row.value(static_cast<size_t>(c)));
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

MaterializedRelation BuildEq5SupplierSide(TpchGen& gen) {
  // Region scan (region 0, the generator's "ASIA").
  MaterializedRelation region =
      Scan("region", kNumRegions,
           [](uint64_t i) {
             Row row;
             row.Append(Value(static_cast<int64_t>(i)));  // r_regionkey
             return row;
           },
           [](const Row& row) { return row.Int64(0) == 0; });
  // Nation: [n_nationkey, n_regionkey].
  MaterializedRelation nation =
      Scan("nation", kNumNations,
           [&gen](uint64_t i) { return gen.Nation(i); });
  // Region |X| Nation on regionkey.
  MaterializedRelation rn =
      LocalJoin(region, nation,
                MakeEquiJoin(/*r_key_col=*/0, NationCols::kRegionKey, "r_n"),
                "region_nation");
  // rn rows: [r_regionkey, n_nationkey, n_regionkey]; nationkey at col 1.
  MaterializedRelation supplier =
      Scan("supplier", gen.config().NumSuppliers(),
           [&gen](uint64_t i) { return gen.Supplier(i); });
  // (R |X| N) |X| Supplier on nationkey.
  MaterializedRelation rns =
      LocalJoin(rn, supplier,
                MakeEquiJoin(/*r_key_col=*/1, SupplierCols::kNationKey, "rn_s"),
                "region_nation_supplier");
  // rns rows: [r_regionkey, n_nationkey, n_regionkey,
  //            s_suppkey, s_nationkey, s_acctbal]; project [suppkey, nation].
  return Project(rns, {3, 4});
}

MaterializedRelation BuildEq7SupplierSide(TpchGen& gen) {
  MaterializedRelation nation =
      Scan("nation", kNumNations,
           [&gen](uint64_t i) { return gen.Nation(i); },
           [](const Row& row) {
             int64_t key = row.Int64(NationCols::kNationKey);
             return key == 1 || key == 2;  // the query's two nations
           });
  MaterializedRelation supplier =
      Scan("supplier", gen.config().NumSuppliers(),
           [&gen](uint64_t i) { return gen.Supplier(i); });
  MaterializedRelation sn =
      LocalJoin(nation, supplier,
                MakeEquiJoin(NationCols::kNationKey, SupplierCols::kNationKey,
                             "n_s"),
                "supplier_nation");
  // sn rows: [n_nationkey, n_regionkey, s_suppkey, s_nationkey, s_acctbal].
  return Project(sn, {2, 3});
}

}  // namespace ajoin
