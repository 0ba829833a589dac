// Predicate and local join algorithm tests (the paper's per-joiner
// non-blocking joins) against the reference nested loop.

#include <gtest/gtest.h>

#include <algorithm>

#include "reference/local_join.h"
#include "src/common/random.h"
#include "src/localjoin/join_index.h"
#include "src/localjoin/predicate.h"

namespace ajoin {
namespace {

Row KeyRow(int64_t key, int64_t extra = 0) {
  Row row;
  row.Append(Value(key));
  row.Append(Value(extra));
  return row;
}

TEST(Predicate, EquiMatchAndProbeRange) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  EXPECT_TRUE(spec.Matches(KeyRow(5), KeyRow(5)));
  EXPECT_FALSE(spec.Matches(KeyRow(5), KeyRow(6)));
  int64_t lo, hi;
  spec.ProbeRange(Rel::kR, 9, &lo, &hi);
  EXPECT_EQ(lo, 9);
  EXPECT_EQ(hi, 9);
}

TEST(Predicate, BandMatchAndProbeRanges) {
  JoinSpec spec = MakeBandJoin(0, 0, -1, 2);  // -1 <= r - s <= 2
  EXPECT_TRUE(spec.Matches(KeyRow(10), KeyRow(11)));   // d = -1
  EXPECT_TRUE(spec.Matches(KeyRow(10), KeyRow(8)));    // d = 2
  EXPECT_FALSE(spec.Matches(KeyRow(10), KeyRow(12)));  // d = -2
  EXPECT_FALSE(spec.Matches(KeyRow(10), KeyRow(7)));   // d = 3
  int64_t lo, hi;
  spec.ProbeRange(Rel::kR, 10, &lo, &hi);  // s in [r-2, r+1]
  EXPECT_EQ(lo, 8);
  EXPECT_EQ(hi, 11);
  spec.ProbeRange(Rel::kS, 10, &lo, &hi);  // r in [s-1, s+2]
  EXPECT_EQ(lo, 9);
  EXPECT_EQ(hi, 12);
}

TEST(Predicate, ThetaCallbackAndResidual) {
  JoinSpec spec = MakeThetaJoin(
      [](const Row& r, const Row& s) { return r.Int64(0) != s.Int64(0); });
  EXPECT_TRUE(spec.Matches(KeyRow(1), KeyRow(2)));
  EXPECT_FALSE(spec.Matches(KeyRow(3), KeyRow(3)));
  spec.residual = [](const Row& r, const Row& s) {
    return r.Int64(1) > s.Int64(1);
  };
  EXPECT_TRUE(spec.Matches(KeyRow(1, 9), KeyRow(2, 3)));
  EXPECT_FALSE(spec.Matches(KeyRow(1, 3), KeyRow(2, 9)));
}

TEST(JoinIndex, KindSelection) {
  EXPECT_EQ(JoinIndex::KindFor(JoinSpec::Kind::kEqui), JoinIndex::Kind::kHash);
  EXPECT_EQ(JoinIndex::KindFor(JoinSpec::Kind::kBand), JoinIndex::Kind::kTree);
  EXPECT_EQ(JoinIndex::KindFor(JoinSpec::Kind::kTheta), JoinIndex::Kind::kScan);
}

TEST(JoinIndex, TreeRangeCandidates) {
  JoinIndex index(JoinIndex::Kind::kTree);
  for (int64_t k = 0; k < 100; ++k) index.Add(k, static_cast<uint64_t>(k));
  std::vector<uint64_t> got;
  index.ForEachCandidate(10, 14, [&](uint64_t id) { got.push_back(id); });
  EXPECT_EQ(got, (std::vector<uint64_t>{10, 11, 12, 13, 14}));
}

TEST(JoinIndex, ScanYieldsAll) {
  JoinIndex index(JoinIndex::Kind::kScan);
  for (uint64_t i = 0; i < 5; ++i) index.Add(0, i);
  size_t n = 0;
  index.ForEachCandidate(100, 200, [&](uint64_t) { ++n; });
  EXPECT_EQ(n, 5u);
}

// Runs a LocalJoiner over an interleaved stream; results must match the
// reference nested loop exactly (as multisets of (r_extra, s_extra) ids).
void CheckLocalJoiner(const JoinSpec& spec, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rs, ss;
  LocalJoiner joiner(spec);
  std::vector<std::pair<int64_t, int64_t>> got;
  size_t bytes[2] = {0, 0};
  for (int i = 0; i < 600; ++i) {
    bool is_r = rng.NextBool(0.4);
    Row row = KeyRow(static_cast<int64_t>(rng.Uniform(40)),
                     /*extra=*/i);
    joiner.Insert(is_r ? Rel::kR : Rel::kS, row,
                  [&](const Row& r, const Row& s) {
                    got.emplace_back(r.Int64(1), s.Int64(1));
                  });
    bytes[is_r ? 0 : 1] += row.ByteSize();
    (is_r ? rs : ss).push_back(std::move(row));
  }
  std::vector<std::pair<int64_t, int64_t>> want;
  for (auto [ri, si] : ReferenceJoin(rs, ss, spec)) {
    want.emplace_back(rs[ri].Int64(1), ss[si].Int64(1));
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(joiner.StoredCount(Rel::kR), rs.size());
  EXPECT_EQ(joiner.StoredCount(Rel::kS), ss.size());
  EXPECT_GT(joiner.StoredBytes(Rel::kR), 0u);
  EXPECT_GT(joiner.StoredBytes(Rel::kS), 0u);
  EXPECT_EQ(joiner.StoredBytes(Rel::kR), bytes[0]);
  EXPECT_EQ(joiner.StoredBytes(Rel::kS), bytes[1]);
}

TEST(LocalJoiner, EquiInMemory) { CheckLocalJoiner(MakeEquiJoin(0, 0), 1); }

TEST(LocalJoiner, BandInMemory) {
  CheckLocalJoiner(MakeBandJoin(0, 0, -2, 2), 2);
}

TEST(LocalJoiner, ThetaInMemory) {
  CheckLocalJoiner(
      MakeThetaJoin([](const Row& r, const Row& s) {
        return (r.Int64(0) + s.Int64(0)) % 7 == 0;
      }),
      3);
}

TEST(ReferenceJoin, CrossProductSubset) {
  std::vector<Row> rs{KeyRow(1), KeyRow(2)};
  std::vector<Row> ss{KeyRow(2), KeyRow(3), KeyRow(2)};
  auto pairs = ReferenceJoin(rs, ss, MakeEquiJoin(0, 0));
  EXPECT_EQ(pairs,
            (std::vector<std::pair<size_t, size_t>>{{1, 0}, {1, 2}}));
}

}  // namespace
}  // namespace ajoin
