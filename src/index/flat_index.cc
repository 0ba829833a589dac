#include "src/index/flat_index.h"

#include <algorithm>

#include "src/common/bitutil.h"
#include "src/common/status.h"

namespace ajoin {

namespace {

// Smallest power-of-two slot count holding `keys` distinct keys under the
// 7/8 max load factor.
size_t SlotCountFor(size_t keys) {
  size_t slots = CeilPowerOfTwo(keys + keys / 7 + 1);
  return slots < FlatHashIndex::kMinSlots ? FlatHashIndex::kMinSlots : slots;
}

}  // namespace

void FlatHashIndex::Insert(int64_t key, uint64_t row_id) {
  AJOIN_CHECK_MSG((row_id & kExternal) == 0, "flat index row id limit");
  MaybeGrow();
  const uint64_t h = SplitMix64(static_cast<uint64_t>(key));
  const uint8_t tag = TagOf(h);
  size_t group = GroupOf(h);
  while (true) {
    uint8_t* ctrl = ctrl_.data() + group * kGroupWidth;
    uint32_t match = MatchMask(ctrl, tag);
    while (match != 0) {
      const uint32_t lane = CountTrailingZeros(match);
      match &= match - 1;
      Slot& slot = slots_[group * kGroupWidth + lane];
      if (slot.key == key) {
        AppendToRun(&slot, row_id);
        ++size_;
        return;
      }
    }
    const uint32_t empty = EmptyMask(ctrl);
    if (empty != 0) {
      const uint32_t lane = CountTrailingZeros(empty);
      ctrl[lane] = tag;
      slots_[group * kGroupWidth + lane] = Slot{key, row_id};
      ++used_slots_;
      ++size_;
      return;
    }
    group = NextGroup(group);
  }
}

void FlatHashIndex::InsertRun(const int64_t* keys, size_t n,
                              uint64_t first_id) {
  if (n == 0) return;
  // The stages read ctrl_, which the first Insert allocates.
  if (ctrl_.empty()) {
    Insert(*keys++, first_id++);
    --n;
  }
  RunPipeline(keys, n, [&](size_t i, const Pending&) {
    Insert(keys[i], first_id + i);
  });
}

void FlatHashIndex::AppendToRun(Slot* slot, uint64_t row_id) {
  if ((slot->head & kExternal) == 0) {
    // Inline -> external: open a run seeded with the inline id.
    const uint64_t off = AllocRun(kInitialRunCap);
    arena_[off] = RunHeader(kInitialRunCap, 2);
    arena_[off + 1] = slot->head;
    arena_[off + 2] = row_id;
    slot->head = kExternal | off;
    return;
  }
  const uint64_t off = slot->head & ~kExternal;
  const uint64_t header = arena_[off];
  const uint32_t count = RunCount(header);
  const uint32_t cap = RunCap(header);
  if (count < cap) {
    arena_[off + 1 + count] = row_id;
    arena_[off] = RunHeader(cap, count + 1);
    return;
  }
  // Relocate the run doubled; the old copy becomes arena dead space (bounded
  // by the growth factor, counted by MemoryBytes()).
  AJOIN_CHECK_MSG(cap <= (1u << 30), "flat index run limit");
  const uint32_t new_cap = cap * 2;
  const uint64_t new_off = AllocRun(new_cap);
  std::memcpy(arena_.data() + new_off + 1, arena_.data() + off + 1,
              static_cast<size_t>(count) * sizeof(uint64_t));
  arena_[new_off + 1 + count] = row_id;
  arena_[new_off] = RunHeader(new_cap, count + 1);
  slot->head = kExternal | new_off;
}

uint64_t FlatHashIndex::AllocRun(uint32_t cap) {
  // One header word plus `cap` id words.
  const size_t off = arena_.size();
  arena_.resize(off + 1 + cap);
  return off;
}

void FlatHashIndex::MaybeGrow() {
  // First insert: allocate the lazily-deferred initial table.
  if (ctrl_.empty()) {
    Rehash(SlotCountFor(initial_slots_));
    return;
  }
  // Grow at 7/8 occupancy of distinct keys.
  if (used_slots_ * 8 < ctrl_.size() * 7) return;
  Rehash(ctrl_.size() * 2);
}

void FlatHashIndex::Rehash(size_t new_slot_count) {
  std::vector<uint8_t> old_ctrl = std::move(ctrl_);
  std::vector<Slot> old_slots = std::move(slots_);
  ctrl_.assign(new_slot_count, kEmpty);
  slots_.assign(new_slot_count, Slot{});
  group_mask_ = new_slot_count / kGroupWidth - 1;
  // Re-place whole slots; arena runs move with their slot untouched.
  for (size_t i = 0; i < old_ctrl.size(); ++i) {
    if (old_ctrl[i] == kEmpty) continue;
    const Slot& moved = old_slots[i];
    const uint64_t h = SplitMix64(static_cast<uint64_t>(moved.key));
    const uint8_t tag = TagOf(h);
    size_t group = GroupOf(h);
    while (true) {
      uint8_t* ctrl = ctrl_.data() + group * kGroupWidth;
      const uint32_t empty = EmptyMask(ctrl);
      if (empty != 0) {
        const uint32_t lane = CountTrailingZeros(empty);
        ctrl[lane] = tag;
        slots_[group * kGroupWidth + lane] = moved;
        break;
      }
      group = NextGroup(group);
    }
  }
}

void FlatHashIndex::Reserve(size_t n) {
  // Pre-size only when a duplication ratio is known: the live state's own
  // ratio, or the pre-Clear ratio for a migration-style Clear()+rebuild.
  // With no information, a speculative pre-size either oversizes the
  // permanent slot table up to 16x (duplicate-heavy absorb) or strands
  // arena capacity (unique absorb) — phantom bytes that MemoryBytes()
  // would feed into the controller's ILF accounting forever. Organic
  // geometric growth is amortized and always tight, so an uninformed
  // Reserve deliberately does nothing.
  const size_t ratio_keys = size_ > 0 ? used_slots_ : prior_keys_;
  const size_t ratio_size = size_ > 0 ? size_ : prior_size_;
  if (ratio_size == 0) return;
  // Distinct-key estimate with a slight overshoot (n/8) to damp the cost
  // of an underestimate; growth past it stays amortized as usual.
  size_t keys = static_cast<size_t>(static_cast<double>(n) *
                                    static_cast<double>(ratio_keys) /
                                    static_cast<double>(ratio_size)) +
                n / 8 + 1;
  if (keys > n) keys = n;
  const size_t want = SlotCountFor(used_slots_ + keys);
  if (want > ctrl_.size()) Rehash(want);
  // Arena headroom for the estimated duplicate surplus only (unique keys
  // store their id inline and never touch the arena): 2x covers run
  // headers and first relocations, and a shortfall just reallocates
  // geometrically/amortized.
  const size_t dup_surplus = n > keys ? n - keys : 0;
  if (dup_surplus > 0) arena_.reserve(arena_.size() + dup_surplus * 2);
}

void FlatHashIndex::Clear() {
  if (size_ > 0) {
    prior_keys_ = used_slots_;
    prior_size_ = size_;
  }
  std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
  arena_.clear();
  size_ = 0;
  used_slots_ = 0;
}

}  // namespace ajoin
