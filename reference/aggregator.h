// ReferenceAggregator: the single-threaded group-by oracle. The AggOperator
// differentials in tests/agg_test.cc compare against it, and
// bench/fig_agg_throughput.cc reports it as the one-thread baseline. No part
// of src/ reaches it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/core/agg.h"
#include "src/core/weighted.h"

namespace ajoin {

/// Single-threaded reference aggregation, kept in an ordered map so its
/// results come out sorted by key, like AggOperator::Collect().
class ReferenceAggregator {
 public:
  /// Folds one (key, weight, value) observation.
  void Add(int64_t key, double weight, int64_t value) {
    groups_[key].Merge(weight, value);
  }

  /// All aggregates, sorted by key.
  std::vector<AggResult> Results() const {
    std::vector<AggResult> out;
    out.reserve(groups_.size());
    for (const auto& kv : groups_) out.push_back({kv.first, kv.second});
    return out;
  }

  /// Distinct group keys folded so far.
  size_t size() const { return groups_.size(); }

 private:
  std::map<int64_t, WeightedAccum> groups_;
};

}  // namespace ajoin
