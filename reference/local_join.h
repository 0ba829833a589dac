// LocalJoiner: a single-machine non-blocking (pipelined/symmetric) join,
// kept as a test oracle and as the local join of the materialized pipeline
// baseline (reference/pipeline.h). No part of src/ reaches it.
//
// It is the "any flavor of non-blocking join algorithm" each joiner task
// runs locally (paper section 3.2): incoming tuples are joined against the
// stored opposite relation, then stored themselves. Depending on the
// predicate it behaves as a symmetric hash join (equi), a tree-based band
// join, or a symmetric nested-loop join (theta). Both relations stay in
// memory.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/localjoin/join_index.h"
#include "src/localjoin/predicate.h"
#include "src/tuple/row.h"

namespace ajoin {

class LocalJoiner {
 public:
  explicit LocalJoiner(JoinSpec spec)
      : spec_(std::move(spec)),
        index_{JoinIndex(JoinIndex::KindFor(spec_.kind)),
               JoinIndex(JoinIndex::KindFor(spec_.kind))} {}

  /// Inserts a tuple and emits all new join results against stored state.
  /// emit(r_row, s_row) is called once per match.
  template <typename Emit>
  void Insert(Rel rel, const Row& row, Emit&& emit) {
    Probe(rel, row, emit);
    Store(rel, row);
  }

  /// Probe-only (the pipeline baseline probes a stored build side).
  template <typename Emit>
  void Probe(Rel rel, const Row& row, Emit&& emit) {
    const Rel opp = Opposite(rel);
    const auto opp_i = static_cast<size_t>(opp);
    int64_t lo = 0, hi = 0;
    if (spec_.kind != JoinSpec::Kind::kTheta) {
      spec_.ProbeRange(rel, spec_.KeyOf(rel, row), &lo, &hi);
    }
    index_[opp_i].ForEachCandidate(lo, hi, [&](uint64_t id) {
      const Row& stored = rows_[opp_i][id];
      bool match = (rel == Rel::kR) ? PairMatches(row, stored)
                                    : PairMatches(stored, row);
      if (match) {
        if (rel == Rel::kR) {
          emit(row, stored);
        } else {
          emit(stored, row);
        }
      }
    });
  }

  /// Stores a tuple without probing (used when seeding state).
  void Store(Rel rel, const Row& row) {
    const auto i = static_cast<size_t>(rel);
    const uint64_t id = rows_[i].size();
    bytes_[i] += row.ByteSize();
    rows_[i].push_back(row);
    int64_t key = (spec_.kind == JoinSpec::Kind::kTheta)
                      ? 0
                      : spec_.KeyOf(rel, row);
    index_[i].Add(key, id);
  }

  size_t StoredCount(Rel rel) const {
    return rows_[static_cast<size_t>(rel)].size();
  }

  /// Sum of Row::ByteSize() over the relation's stored rows.
  size_t StoredBytes(Rel rel) const { return bytes_[static_cast<size_t>(rel)]; }

  const JoinSpec& spec() const { return spec_; }

 private:
  bool PairMatches(const Row& r, const Row& s) const {
    // Index candidates already satisfy the key condition for equi/band, but
    // Matches() re-checks it (cheap) and applies the residual.
    return spec_.Matches(r, s);
  }

  JoinSpec spec_;
  JoinIndex index_[2];
  // Stored rows per relation; a row's id is its position.
  std::vector<Row> rows_[2];
  size_t bytes_[2] = {0, 0};
};

/// Reference nested-loop join for correctness tests: returns all matching
/// (r_index, s_index) pairs in row-major order.
std::vector<std::pair<size_t, size_t>> ReferenceJoin(
    const std::vector<Row>& rs, const std::vector<Row>& ss,
    const JoinSpec& spec);

}  // namespace ajoin
