// Minimal query pipeline on top of the operator — the Squall execution
// pattern the paper evaluates: "All intermediate results are materialized
// before online processing." A pipeline materializes dimension-side
// intermediates with local pipelined joins (scan -> filter -> join ...) and
// feeds the final, expensive join to the distributed adaptive operator.
// This is the *baseline* consumption model: src/query/dataflow.h lifts the
// materialization limitation by streaming one distributed join's egress
// straight into the next (no intermediate relation, migrations live in
// every stage); tests/egress_test.cc proves the two plans byte-identical.
// The live system is the streaming cascade, so this baseline sits in
// reference/, outside the ajoin library.
//
// This layer also serves as a cross-check: the EQ5/EQ7 builders compute the
// (Region |X| Nation |X| Supplier) intermediates by actually joining the
// relations, and must agree with the filter-based stream definitions in
// src/datagen/workloads.cc.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/datagen/tpch.h"
#include "src/localjoin/predicate.h"
#include "src/tuple/row.h"

namespace ajoin {

/// A fully materialized intermediate relation.
struct MaterializedRelation {
  std::string name;
  std::vector<Row> rows;

  uint64_t size() const { return rows.size(); }
};

/// Scans `count` generated rows, keeping those passing `filter` (null = all).
MaterializedRelation Scan(std::string name, uint64_t count,
                          const std::function<Row(uint64_t)>& gen,
                          const std::function<bool(const Row&)>& filter = {});

/// Filters a materialized relation.
MaterializedRelation Filter(const MaterializedRelation& input,
                            const std::function<bool(const Row&)>& pred);

/// Pipelined (symmetric) local join of two materialized relations; output
/// rows are the concatenation left ++ right. Used for the small dimension
/// joins executed before the distributed stage.
MaterializedRelation LocalJoin(const MaterializedRelation& left,
                               const MaterializedRelation& right,
                               const JoinSpec& spec, std::string name);

/// Projects columns by index.
MaterializedRelation Project(const MaterializedRelation& input,
                             const std::vector<int>& columns);

/// The EQ5 dimension side, computed by joining:
///   Region(filtered to one region) |X| Nation |X| Supplier -> suppkey rows.
/// Column 0 of the result is s_suppkey (the distributed join key).
MaterializedRelation BuildEq5SupplierSide(TpchGen& gen);

/// The EQ7 dimension side: Supplier |X| Nation restricted to two nations.
MaterializedRelation BuildEq7SupplierSide(TpchGen& gen);

}  // namespace ajoin
