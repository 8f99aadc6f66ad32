#ifndef COLR_CORE_SLOT_CACHE_H_
#define COLR_CORE_SLOT_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "core/aggregate.h"

namespace colr {

/// Absolute slot index on the global time axis. Slots are globally
/// aligned (paper §IV-B: "we are only able to perform per-slot
/// aggregation given a globally aligned slotting scheme"), so
/// slot identifiers are simply floor(t / delta).
using SlotId = int64_t;

/// Global slotting scheme shared by every slot-cache in a COLR-Tree:
/// slot width delta and the sliding window of the `num_slots` most
/// recent slots. Readings are bucketed by **expiry timestamp**; the
/// window therefore spans from "now" to "now + t_max", and rolling
/// forward one slot expunges the oldest slot, whose readings have all
/// expired (§IV-A).
class SlotScheme {
 public:
  /// delta: slot width; t_max: maximum sensor expiry period. The
  /// window holds m = ceil(t_max/delta) + 1 slots so that a reading
  /// inserted now with the maximum expiry period always fits.
  SlotScheme(TimeMs delta, TimeMs t_max)
      : delta_(delta > 0 ? delta : 1),
        num_slots_(static_cast<int>((t_max + delta_ - 1) / delta_) + 1),
        newest_(num_slots_ - 1) {}

  TimeMs delta() const { return delta_; }
  int num_slots() const { return num_slots_; }

  SlotId SlotOf(TimeMs t) const {
    // Floor division that is correct for negative times too.
    SlotId q = t / delta_;
    if (t % delta_ < 0) --q;
    return q;
  }

  /// Lower edge (inclusive exclusive bound, (lo, hi] in the paper's
  /// notation) of a slot's time range.
  TimeMs SlotLowerEdge(SlotId slot) const { return slot * delta_; }
  TimeMs SlotUpperEdge(SlotId slot) const { return (slot + 1) * delta_; }

  SlotId newest() const { return newest_.load(); }
  SlotId oldest() const { return newest() - num_slots_ + 1; }

  bool InWindow(SlotId slot) const {
    const SlotId newest_slot = newest();
    return slot >= newest_slot - num_slots_ + 1 && slot <= newest_slot;
  }

  /// Advances the window so that `slot` becomes (at least) the newest
  /// slot. Returns the number of slots the window slid. Rolls must be
  /// externally serialized (ColrTree's write path does so); concurrent
  /// readers of newest()/oldest()/InWindow() are safe — the head is a
  /// single atomic word, and content for slots that slide out is
  /// filtered lazily by slot-id tags.
  int RollTo(SlotId slot) {
    const SlotId newest_slot = newest();
    if (slot <= newest_slot) return 0;
    const int slid = static_cast<int>(slot - newest_slot);
    newest_.store(slot);
    return slid;
  }

  /// Ring-buffer position for a slot (valid only when InWindow).
  int RingIndex(SlotId slot) const {
    SlotId m = slot % num_slots_;
    if (m < 0) m += num_slots_;
    return static_cast<int>(m);
  }

 private:
  TimeMs delta_;
  int num_slots_;
  /// Window head. Atomic (copyable wrapper) so query threads can test
  /// slot usability while a serialized writer rolls the window.
  AtomicCounter<SlotId> newest_;
};

/// Per-node slot cache holding one partial aggregate per slot
/// (paper §IV-A/B). Implemented as a lazily-reset ring: each ring
/// position is tagged with the absolute SlotId it currently
/// represents, so the global window roll is O(1) — stale positions
/// reset themselves on next access. `weight` is the paper's cache
/// table "value weight": the number of readings aggregated into the
/// slot, which the sampling algorithm uses as the cached count |c_i|.
///
/// Not internally synchronized: ColrTree guards each node's cache
/// with that node's node_mutex_ stripe (DESIGN.md §6) — runtime-keyed
/// and hence outside the thread-safety analysis; the per-slot version
/// tags and the TSan suites carry that contract.
class AggregateSlotCache {
 public:
  explicit AggregateSlotCache(int num_slots = 0) : slots_(num_slots) {}

  void Resize(int num_slots) { slots_.assign(num_slots, Slot{}); }

  /// Adds a reading value to the slot for its expiry time. The slot
  /// position is reset first if it still carries an older slot's data.
  /// Out-of-window slots are refused (no-op): re-tagging a ring
  /// position with an expired slot id would clear the in-window slot
  /// sharing that position (ring-index collision).
  void Add(const SlotScheme& scheme, SlotId slot, double value) {
    if (Slot* s = MutableSlot(scheme, slot)) {
      s->agg.Add(value);
      ++s->version;
    }
  }

  /// Merges a partial aggregate (bulk insert from a child). Refuses
  /// out-of-window slots like Add.
  void Merge(const SlotScheme& scheme, SlotId slot, const Aggregate& agg) {
    if (Slot* s = MutableSlot(scheme, slot)) {
      s->agg.Merge(agg);
      ++s->version;
    }
  }

  /// Decrements a value. Returns false when the aggregate's min/max
  /// became unreliable and the slot must be recomputed by the caller.
  /// An out-of-window slot has nothing to undo and reports invertible.
  bool Remove(const SlotScheme& scheme, SlotId slot, double value) {
    Slot* s = MutableSlot(scheme, slot);
    if (s == nullptr) return true;
    ++s->version;
    return s->agg.Remove(value);
  }

  /// Overwrites a slot's aggregate (used by recompute-from-children).
  /// Refuses out-of-window slots like Add.
  void Set(const SlotScheme& scheme, SlotId slot, const Aggregate& agg) {
    if (Slot* s = MutableSlot(scheme, slot)) {
      s->agg = agg;
      ++s->version;
    }
  }

  /// Version tag of the ring position currently backing `slot` (0 for
  /// out-of-window slots). The tag is bumped by every mutation of the
  /// position — including lazy re-tags to a different slot id — and is
  /// monotone per position, so an unchanged version between two reads
  /// under the same lock discipline proves the slot's aggregate did
  /// not change in between (no ABA: re-tagging never resets it).
  /// ColrTree's recompute-from-children validates against this before
  /// overwriting a slot, turning any concurrent-writer interleaving
  /// into a retry instead of a lost update.
  uint64_t SlotVersion(const SlotScheme& scheme, SlotId slot) const {
    if (!scheme.InWindow(slot)) return 0;
    return slots_[scheme.RingIndex(slot)].version;
  }

  /// Read-only view of a slot; returns an empty aggregate when the
  /// ring position belongs to a different (expired) slot.
  const Aggregate& Get(const SlotScheme& scheme, SlotId slot) const {
    static const Aggregate kEmpty{};
    if (!scheme.InWindow(slot)) return kEmpty;
    const Slot& s = slots_[scheme.RingIndex(slot)];
    return s.slot_id == slot ? s.agg : kEmpty;
  }

  /// Merges every slot strictly newer than `query_slot` up to the
  /// newest window slot — the paper's lookup rule ("useful readings
  /// ... lying in slots which are strictly younger", §IV-A). Also
  /// reports how many slots contributed.
  ///
  /// The window head is read exactly once: a roll concurrent with the
  /// lookup moves `scheme.newest()` mid-scan, and re-reading it per
  /// iteration would merge a mix of slots from two different window
  /// positions (a torn window — e.g. the pre-roll oldest slot plus the
  /// post-roll newest slot, which the ring stores at the same index).
  /// Every slot is therefore filtered against the one snapshot; slots
  /// the concurrent roll re-tagged simply read as empty.
  Aggregate QueryNewerThan(const SlotScheme& scheme, SlotId query_slot,
                           int* slots_merged = nullptr) const {
    Aggregate out;
    const SlotId newest = scheme.newest();  // single atomic head read
    const SlotId oldest = newest - scheme.num_slots() + 1;
    const SlotId from = std::max(query_slot + 1, oldest);
    for (SlotId s = from; s <= newest; ++s) {
      const Slot& ring = slots_[scheme.RingIndex(s)];
      if (ring.slot_id != s || ring.agg.empty()) continue;
      out.Merge(ring.agg);
      if (slots_merged) ++*slots_merged;
    }
    return out;
  }

 private:
  struct Slot {
    SlotId slot_id = std::numeric_limits<SlotId>::min();
    /// Mutation tag; see SlotVersion().
    uint64_t version = 0;
    Aggregate agg;
  };

  /// Ring position for `slot`, lazily reset if it still carries an
  /// older slot's data. Returns nullptr for slots outside the window:
  /// a late-arriving mutation for an expired slot must never re-tag a
  /// ring position that an in-window slot currently owns.
  Slot* MutableSlot(const SlotScheme& scheme, SlotId slot) {
    if (!scheme.InWindow(slot)) return nullptr;
    Slot& s = slots_[scheme.RingIndex(slot)];
    if (s.slot_id != slot) {
      s.slot_id = slot;
      s.agg.Clear();
      ++s.version;
    }
    return &s;
  }

  std::vector<Slot> slots_;
};

}  // namespace colr

#endif  // COLR_CORE_SLOT_CACHE_H_
