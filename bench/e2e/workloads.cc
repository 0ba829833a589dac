#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/datagen/workloads.h"

namespace e2e {

using ajoin::Rel;

const std::vector<WorkloadDef>& Workloads() {
  // Why each workload is here (see README.md for the layer map):
  //  eq_uniform     steady hot path, controller idle: ingress -> reshuffler
  //                 -> exchange -> flat index -> egress, ~5 results/input.
  //  eq_fluct_zipf  the paper's section 5.4 fluctuating arrival over Zipf(1)
  //                 S keys: repeated Alg. 3 migrations of growing state and
  //                 long duplicate runs into ProbeRun.
  //  band_lopsided  |r - s| <= 1 band join, R:S = 1:8: the ordered B-tree
  //                 path and one early move to a non-square mapping,
  //                 ~1.7 results/input (write-heavy).
  //  join_groupby   join -> group-by -> sink over Zipf(1) S keys: the only
  //                 user of the agg routers/workers and agg cell migration.
  static const std::vector<WorkloadDef> kWorkloads = {
      {WorkloadId::kEqUniform, "eq_uniform", 2000000, 1.0 / 20, 1.0e6, 0.5},
      {WorkloadId::kEqFluctZipf, "eq_fluct_zipf", 2000000, 1.0 / 12, 0.6e6,
       1.0},
      {WorkloadId::kBandLopsided, "band_lopsided", 2000000, 0.174, 1.2e6,
       0.5},
      {WorkloadId::kJoinGroupby, "join_groupby", 2000000, 1.0 / 4, 0, 0},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

constexpr uint32_t kTupleBytes = 16;

template <typename T>
void Shuffle(std::vector<T>* v, ajoin::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

/// `count` keys over [1, domain] with fixed multiplicities -- uniform (every
/// key count/domain times, give or take one) or Zipf(1) (evenly spaced
/// quantiles of its CDF) -- in a seeded random order. With the multiset
/// fixed, the join's output size does not depend on the seed; the seed only
/// orders the stream.
std::vector<int64_t> Keys(uint64_t count, int64_t domain, bool zipf,
                          ajoin::Rng& rng) {
  std::vector<int64_t> keys(count);
  const auto d = static_cast<uint64_t>(domain);
  if (!zipf) {
    for (uint64_t i = 0; i < count; ++i) {
      keys[i] = static_cast<int64_t>(1 + i * d / count);
    }
  } else {
    std::vector<double> cdf(d);
    double sum = 0;
    for (uint64_t k = 0; k < d; ++k) cdf[k] = sum += 1.0 / (k + 1);
    for (uint64_t i = 0; i < count; ++i) {
      const double u = (i + 0.5) / count * sum;
      keys[i] = 1 + (std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    }
  }
  Shuffle(&keys, rng);
  return keys;
}

/// Arrival order with exactly `r_count` R tuples among `n`, shuffled.
std::vector<Rel> RandomOrder(uint64_t n, uint64_t r_count, ajoin::Rng& rng) {
  std::vector<Rel> rels(n, Rel::kS);
  std::fill(rels.begin(), rels.begin() + r_count, Rel::kR);
  Shuffle(&rels, rng);
  return rels;
}

/// The section 5.4 arrival order: Workload::Synthetic under
/// ArrivalPolicy::kFluctuating, the R:S ratio alternating between 4 and 1/4.
/// The policy is deterministic, so only the keys vary with the seed.
std::vector<Rel> FluctuatingOrder(uint64_t n, uint64_t seed) {
  const ajoin::Workload w = ajoin::Workload::Synthetic(
      n / 2, n - n / 2, kTupleBytes, kTupleBytes, 1, 1.0, seed);
  ajoin::ArrivalPolicy policy;
  policy.kind = ajoin::ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = 4.0;
  policy.seed = seed;
  auto source = w.MakeSource(policy);
  std::vector<Rel> rels;
  rels.reserve(n);
  ajoin::StreamTuple t;
  while (source->Next(&t)) rels.push_back(t.rel);
  return rels;
}

}  // namespace

Stream Generate(const WorkloadDef& w, uint64_t n, uint64_t seed) {
  Stream s;
  s.domain = std::max<int64_t>(
      16, std::llround(static_cast<double>(n) * w.domain_per_tuple));
  s.spec = ajoin::MakeEquiJoin(0, 0, w.name);
  ajoin::Rng rng(
      ajoin::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<int>(w.id)));
  std::vector<Rel> rels;
  bool zipf_s = false;
  switch (w.id) {
    case WorkloadId::kEqUniform:
      rels = RandomOrder(n, n / 2, rng);
      break;
    case WorkloadId::kEqFluctZipf:
      rels = FluctuatingOrder(n, seed);
      zipf_s = true;
      break;
    case WorkloadId::kBandLopsided:
      s.band = 1;
      s.spec = ajoin::MakeBandJoin(0, 0, -s.band, s.band, w.name);
      rels = RandomOrder(n, n / 9, rng);
      break;
    case WorkloadId::kJoinGroupby:
      rels = RandomOrder(n, n / 2, rng);
      zipf_s = true;
      break;
  }
  const auto r_count =
      static_cast<uint64_t>(std::count(rels.begin(), rels.end(), Rel::kR));
  const std::vector<int64_t> r_keys = Keys(r_count, s.domain, false, rng);
  const std::vector<int64_t> s_keys = Keys(n - r_count, s.domain, zipf_s, rng);
  s.tuples.resize(n);
  size_t r = 0, si = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool is_r = rels[i] == Rel::kR;
    s.tuples[i] = {is_r ? r_keys[r++] : s_keys[si++], kTupleBytes, rels[i]};
  }
  return s;
}

namespace {

/// Per-key tallies over a stream prefix, padded by `band` on both sides so
/// band windows never index out of range.
struct KeyTallies {
  KeyTallies(const Stream& stream, size_t prefix)
      : offset(stream.band),
        r_count(Size(stream)),
        s_count(Size(stream)),
        r_hash(Size(stream)),
        s_hash(Size(stream)) {
    for (size_t i = 0; i < prefix; ++i) {
      const SlimTuple& t = stream.tuples[i];
      const size_t k = static_cast<size_t>(t.key + offset);
      if (t.rel == Rel::kR) {
        r_count[k] += 1;
        r_hash[k] += RHash(i);
      } else {
        s_count[k] += 1;
        s_hash[k] += SHash(i);
      }
    }
  }

  static size_t Size(const Stream& s) {
    return static_cast<size_t>(s.domain + 1 + 2 * s.band);
  }

  int64_t offset;
  std::vector<uint64_t> r_count, s_count, r_hash, s_hash;
};

}  // namespace

Expected ExpectedOutput(const Stream& stream, size_t prefix, bool groupby) {
  const KeyTallies t(stream, prefix);
  // Every result carries r.bytes + s.bytes, and all tuples share one size.
  const int64_t value = 2 * static_cast<int64_t>(kTupleBytes);
  Expected out;
  for (int64_t key = 1; key <= stream.domain; ++key) {
    const size_t k = static_cast<size_t>(key + t.offset);
    if (t.r_count[k] == 0) continue;
    uint64_t s_count = 0, s_hash = 0;
    for (size_t j = k - stream.band; j <= k + stream.band; ++j) {
      s_count += t.s_count[j];
      s_hash += t.s_hash[j];
    }
    const uint64_t results = t.r_count[k] * s_count;
    out.results += results;
    out.checksum += t.r_hash[k] * s_hash;
    if (!groupby || results == 0) continue;
    ajoin::AggResult g;
    g.key = key;
    g.acc.count = static_cast<double>(results);
    g.acc.sum = static_cast<double>(results) * static_cast<double>(value);
    g.acc.min = value;
    g.acc.max = value;
    g.acc.tuples = results;
    out.groups.push_back(g);
  }
  return out;
}

}  // namespace e2e
