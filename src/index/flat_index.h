// Cache-conscious open-addressing multimap over int64 keys -> uint64 row
// ids: the flat, tag-filtered equi-hash index on the equi-join hot path
// (the paper's joiners burn most of their probe cycles in hashmap lookups,
// and those lookups are memory-bound).
//
// Layout (Swiss-table style, insert-only):
//
//   ctrl_   one byte per slot: 0x80 = empty, else the low 7 bits of the
//           key's hash ("tag"). Probed 16 slots at a time with SWAR uint64
//           group matching (an SSE2 path when available); a probe touches
//           slot metadata only on tag hits, so the common miss/unique-hit
//           case reads one 16-byte ctrl group plus at most one slot line.
//   slots_  one 16-byte Slot per distinct key: the key plus a packed
//           payload word. A unique key stores its row id inline (top bit
//           clear); duplicates set the top bit and reference one
//           contiguous run in the side arena, whose first word packs the
//           run's count and capacity — so a probe touches exactly one
//           slot line, and skewed keys stream sequentially instead of
//           chasing chain pointers.
//   arena_  duplicate runs (header word + ids), grown geometrically per
//           key (relocate-on-full, amortized O(1) append; dead space is
//           bounded by the growth factor and accounted in MemoryBytes()).
//
// Groups are 16 aligned slots; group-linear probing, capacity a power of
// two, max load factor 7/8. Insert-only (no tombstones): the joiner's
// migration protocol rebuilds indexes via Clear() + re-Add, so the probe
// invariant "stop at the first group with an empty slot" always holds.
//
// ProbeRun(keys, n, fn) and InsertRun(keys, n, first_id) are the batched
// entry points. Both run one four-stage software pipeline (hash -> prefetch
// ctrl group -> match tags + prefetch slot -> resolve key + prefetch
// duplicate run -> emit / Insert) that keeps several keys' cache misses in
// flight instead of stalling on one at a time. InsertRun's stages are
// prefetch-only: every key still goes through the unchanged Insert, in
// order, so the index it builds is the Insert loop's, byte for byte.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/random.h"

#if defined(__SSE2__) && !defined(AJOIN_FLAT_FORCE_SWAR)
#define AJOIN_FLAT_SSE2 1
#include <emmintrin.h>
#endif

namespace ajoin {

/// Insert-only open-addressing multimap (flat tag-filtered join index).
/// Duplicates per key are expected (skewed foreign keys); each distinct key
/// occupies one slot whose payload is either an inline row id or a
/// contiguous duplicate run in the side arena.
class FlatHashIndex {
 public:
  /// Builds an empty index sized lazily: no storage is allocated until the
  /// first Insert/Reserve (a JoinIndex of the tree or scan kind carries an
  /// unused FlatHashIndex — it must cost nothing, in bytes and in
  /// MemoryBytes() ILF accounting). The first allocation holds roughly
  /// `initial_slots` distinct keys.
  explicit FlatHashIndex(size_t initial_slots = 64)
      : initial_slots_(initial_slots) {}

  /// Inserts (key, row_id). Amortized O(1); duplicates append to the key's
  /// contiguous arena run.
  void Insert(int64_t key, uint64_t row_id);

  /// Inserts (keys[i], first_id + i) for i = 0..n-1 through Insert, in
  /// order, with ProbeRun's pipeline running 3 * kPipeline keys ahead: each
  /// key's ctrl group, slot and duplicate-run header are prefetched before
  /// its Insert. The stages only prefetch, so the resulting index (layout,
  /// match order, MemoryBytes) is the Insert loop's; a growth mid-run only
  /// wastes the prefetches issued before it.
  void InsertRun(const int64_t* keys, size_t n, uint64_t first_id);

  /// Pre-sizes the slot table for `n` additional entries and reserves
  /// arena headroom for their estimated duplicate surplus, so a bulk
  /// absorb — e.g. a migrated partition of known size — avoids
  /// rehash/growth storms mid-stream. `n` counts entries (duplicates
  /// included); the slot table needs distinct keys, so the pre-size is
  /// scaled by the duplication ratio of the live state or, after a
  /// Clear(), the ratio observed before it (a migration rebuild
  /// re-inserts a subset of the same distribution). On a fresh index with
  /// no ratio to go on, Reserve deliberately does nothing: organic
  /// geometric growth is amortized and always tight, whereas guessing
  /// either oversizes the permanent table or strands arena capacity —
  /// phantom bytes in the controller's MemoryBytes() ILF accounting.
  void Reserve(size_t n);

  /// Calls fn(row_id) for every entry with exactly this key, in insertion
  /// order.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    const Slot* slot = FindSlot(key);
    if (slot != nullptr) EmitSlot(*slot, fn);
  }

  /// Batched point probes: calls fn(i, row_id) for every match of keys[i],
  /// for i = 0..n-1 in order (matches of one key stream in insertion
  /// order). A four-stage software-prefetch pipeline keeps ~kPipeline
  /// probes' misses in flight: hash + ctrl-group prefetch, tag match +
  /// slot prefetch, key resolve + duplicate-run prefetch, then emission.
  template <typename Fn>
  void ProbeRun(const int64_t* keys, size_t n, Fn&& fn) const {
    if (used_slots_ == 0 || n == 0) return;
    RunPipeline(keys, n,
                [&](size_t i, const Pending& p) { StageEmit(p, i, fn); });
  }

  /// Number of matches for a key (for selectivity probes). O(1): decoded
  /// from the slot / run header without touching the ids.
  size_t CountMatches(int64_t key) const {
    const Slot* slot = FindSlot(key);
    if (slot == nullptr) return 0;
    if ((slot->head & kExternal) == 0) return 1;
    return RunCount(arena_[slot->head & ~kExternal]);
  }

  /// Total inserted entries (row ids, counting duplicates).
  size_t size() const { return size_; }

  /// Distinct keys currently stored.
  size_t distinct_keys() const { return used_slots_; }

  /// Removes every entry; keeps allocated capacity.
  void Clear();

  /// Minimum slot-table size (one cache-line-sized ctrl block per side).
  static constexpr size_t kMinSlots = 64;

  /// Memory footprint estimate in bytes (ctrl bytes + slot array + arena,
  /// including relocation dead space — the number the controller's ILF
  /// bookkeeping would see).
  size_t MemoryBytes() const {
    return ctrl_.capacity() * sizeof(uint8_t) +
           slots_.capacity() * sizeof(Slot) +
           arena_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr size_t kGroupWidth = 16;
  static constexpr uint8_t kEmpty = 0x80;
  static constexpr uint64_t kLsb = 0x0101010101010101ULL;
  static constexpr uint64_t kMsb = 0x8080808080808080ULL;
  // Pipeline distance between ProbeRun/InsertRun stages; the ring must hold
  // the 3 * kPipeline + 1 keys in flight and stays a power of two so the
  // hot-loop index is a mask, not a division.
  static constexpr size_t kPipeline = 5;
  static constexpr size_t kWindow = 16;
  static_assert(kWindow >= 3 * kPipeline + 1 && (kWindow & (kWindow - 1)) == 0,
                "ring must hold all in-flight probes and stay a power of two");
  static constexpr uint32_t kInitialRunCap = 4;

  // Row ids must stay below kExternal — the joiner's entry positions and
  // every realistic id space do. head layout:
  //   top bit clear: head is the row id itself (unique key, inline)
  //   top bit set:   head & ~kExternal is the arena offset of a run header
  //                  word ((cap << 32) | count) followed by `count` ids
  struct Slot {
    int64_t key;
    uint64_t head;
  };
  static constexpr uint64_t kExternal = 1ULL << 63;

  static uint32_t RunCount(uint64_t header) {
    return static_cast<uint32_t>(header);
  }
  static uint32_t RunCap(uint64_t header) {
    return static_cast<uint32_t>(header >> 32);
  }
  static uint64_t RunHeader(uint32_t cap, uint32_t count) {
    return (static_cast<uint64_t>(cap) << 32) | count;
  }

  // Pipeline in-flight state for one key.
  struct Pending {
    uint64_t hash;
    uint64_t head;   // resolved ids: inline row id or arena offset of ids
    uint32_t group;  // primary ctrl group
    uint32_t mask;   // tag matches in the primary group
    uint32_t count;  // 0 = no match
  };

  // Locates the unique slot holding `key`, nullptr if absent (insert-only:
  // the search may stop at the first group containing an empty lane).
  const Slot* FindSlot(int64_t key) const {
    if (used_slots_ == 0) return nullptr;
    const uint64_t h = SplitMix64(static_cast<uint64_t>(key));
    const uint8_t tag = TagOf(h);
    size_t group = GroupOf(h);
    while (true) {
      const uint8_t* ctrl = ctrl_.data() + group * kGroupWidth;
      uint32_t match = MatchMask(ctrl, tag);
      while (match != 0) {
        const uint32_t lane = CountTrailingZeros(match);
        match &= match - 1;
        const Slot& slot = slots_[group * kGroupWidth + lane];
        if (slot.key == key) return &slot;  // a key occupies one slot
      }
      if (EmptyMask(ctrl) != 0) return nullptr;  // key absent
      group = NextGroup(group);
    }
  }

  static uint8_t TagOf(uint64_t h) { return static_cast<uint8_t>(h >> 57); }
  size_t GroupOf(uint64_t h) const { return h & group_mask_; }
  size_t NextGroup(size_t g) const { return (g + 1) & group_mask_; }

  static uint32_t CountTrailingZeros(uint32_t x) {
    return static_cast<uint32_t>(__builtin_ctz(x));
  }

  // Bitmask (bit i = lane i) of ctrl bytes equal to `tag` in the 16-byte
  // group at `ctrl`. Tags are < 0x80, so the SWAR zero-byte detector can
  // only over-report (a false positive costs one key compare, never a miss).
  static uint32_t MatchMask(const uint8_t* ctrl, uint8_t tag) {
#if defined(AJOIN_FLAT_SSE2)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i needle = _mm_set1_epi8(static_cast<char>(tag));
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
#else
    uint64_t lo, hi;
    std::memcpy(&lo, ctrl, sizeof(lo));
    std::memcpy(&hi, ctrl + 8, sizeof(hi));
    return SwarEq(lo, tag) | (SwarEq(hi, tag) << 8);
#endif
  }

  // Bitmask of empty (0x80) lanes. Exact: ctrl bytes are kEmpty or a
  // 7-bit tag, so the high bit alone identifies empties.
  static uint32_t EmptyMask(const uint8_t* ctrl) {
#if defined(AJOIN_FLAT_SSE2)
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    return static_cast<uint32_t>(_mm_movemask_epi8(group));
#else
    uint64_t lo, hi;
    std::memcpy(&lo, ctrl, sizeof(lo));
    std::memcpy(&hi, ctrl + 8, sizeof(hi));
    return PackHighBits(lo & kMsb) | (PackHighBits(hi & kMsb) << 8);
#endif
  }

  // Byte-equality via the zero-byte trick on word ^ broadcast(tag); may
  // over-report a lane adjacent to a true match (borrow propagation), which
  // the key compare filters out.
  static uint32_t SwarEq(uint64_t word, uint8_t tag) {
    const uint64_t x = word ^ (kLsb * tag);
    return PackHighBits((x - kLsb) & ~x & kMsb);
  }

  // Collapses the high bit of each byte into an 8-bit lane mask (the SWAR
  // movemask idiom: each set bit 8k+7 lands at bit k of the top byte, and
  // no two product terms collide, so there are no carries).
  static uint32_t PackHighBits(uint64_t msb_mask) {
    return static_cast<uint32_t>((msb_mask * 0x0002040810204081ULL) >> 56);
  }

  template <typename Fn>
  void EmitSlot(const Slot& slot, Fn&& fn) const {
    if ((slot.head & kExternal) == 0) {
      fn(slot.head);
      return;
    }
    const uint64_t off = slot.head & ~kExternal;
    const uint32_t count = RunCount(arena_[off]);
    const uint64_t* run = arena_.data() + off + 1;
    for (uint32_t i = 0; i < count; ++i) fn(run[i]);
  }

  // --- Pipeline stages (ProbeRun, InsertRun) -------------------------------

  // Key i is hashed at step i, tag-matched at step i + kPipeline, resolved
  // at step i + 2 * kPipeline and handed to last(i, pending) at step
  // i + 3 * kPipeline, so each stage's prefetch has kPipeline steps to land.
  // The stages read ctrl_, slots_ and arena_ as they are at that step; a
  // `last` that inserts may grow the table under the keys still in flight,
  // whose group indices then stay in bounds (tables only grow) and merely
  // point the remaining prefetches at the wrong lines.
  template <typename Last>
  void RunPipeline(const int64_t* keys, size_t n, Last&& last) const {
    // In-flight key states, one ring slot per key modulo the window.
    Pending ring[kWindow];
    for (size_t step = 0; step < n + 3 * kPipeline; ++step) {
      if (step < n) StageHash(keys[step], &ring[step & (kWindow - 1)]);
      if (step >= kPipeline && step - kPipeline < n) {
        StageMatch(&ring[(step - kPipeline) & (kWindow - 1)]);
      }
      if (step >= 2 * kPipeline && step - 2 * kPipeline < n) {
        StageResolve(keys[step - 2 * kPipeline],
                     &ring[(step - 2 * kPipeline) & (kWindow - 1)]);
      }
      if (step >= 3 * kPipeline) {
        const size_t i = step - 3 * kPipeline;
        last(i, ring[i & (kWindow - 1)]);
      }
    }
  }

  void StageHash(int64_t key, Pending* p) const {
    p->hash = SplitMix64(static_cast<uint64_t>(key));
    const size_t group = GroupOf(p->hash);
    p->group = static_cast<uint32_t>(group);
    __builtin_prefetch(ctrl_.data() + group * kGroupWidth);
  }

  void StageMatch(Pending* p) const {
    const uint8_t* ctrl = ctrl_.data() + p->group * kGroupWidth;
    p->mask = MatchMask(ctrl, TagOf(p->hash));
    if (p->mask != 0) {
      __builtin_prefetch(
          &slots_[p->group * kGroupWidth + CountTrailingZeros(p->mask)]);
    }
  }

  // Resolves the matching slot (continuing past the primary group in the
  // rare overflow case) and prefetches the duplicate run's first line.
  void StageResolve(int64_t key, Pending* p) const {
    p->count = 0;
    size_t group = p->group;
    uint32_t match = p->mask;
    const uint8_t tag = TagOf(p->hash);
    while (true) {
      while (match != 0) {
        const uint32_t lane = CountTrailingZeros(match);
        match &= match - 1;
        const Slot& slot = slots_[group * kGroupWidth + lane];
        if (slot.key == key) {
          if ((slot.head & kExternal) == 0) {
            p->head = slot.head;
            p->count = 1;
          } else {
            const uint64_t off = slot.head & ~kExternal;
            __builtin_prefetch(arena_.data() + off);
            p->head = off;
            p->count = kResolveRun;
          }
          return;
        }
      }
      if (EmptyMask(ctrl_.data() + group * kGroupWidth) != 0) return;
      group = NextGroup(group);
      match = MatchMask(ctrl_.data() + group * kGroupWidth, tag);
    }
  }

  // StageResolve marker: the probe resolved to an external run whose header
  // (prefetched there) is decoded at emission time.
  static constexpr uint32_t kResolveRun = 0xffffffffu;

  template <typename Fn>
  void StageEmit(const Pending& p, size_t i, Fn&& fn) const {
    if (p.count == 0) return;
    if (p.count == 1) {
      fn(i, p.head);
      return;
    }
    const uint32_t count = RunCount(arena_[p.head]);
    const uint64_t* run = arena_.data() + p.head + 1;
    for (uint32_t k = 0; k < count; ++k) fn(i, run[k]);
  }

  // --- Insert path ---------------------------------------------------------

  void AppendToRun(Slot* slot, uint64_t row_id);
  uint64_t AllocRun(uint32_t cap);
  void Rehash(size_t new_slot_count);
  void MaybeGrow();

  std::vector<uint8_t> ctrl_;   // slot-count bytes, kEmpty or tag (lazy)
  std::vector<Slot> slots_;     // slot-count entries (lazy)
  std::vector<uint64_t> arena_; // duplicate runs
  size_t initial_slots_ = 64;   // first-allocation sizing hint
  size_t group_mask_ = 0;       // (#groups - 1)
  size_t size_ = 0;             // total row ids
  size_t used_slots_ = 0;       // distinct keys
  // Duplication ratio stashed by Clear() so a post-clear Reserve(n) can
  // translate an entry count into a distinct-key estimate.
  size_t prior_keys_ = 0;
  size_t prior_size_ = 0;
};

}  // namespace ajoin
