#include "core/slot_cache.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/aggregate.h"
#include "core/reading_store.h"
#include "gtest/gtest.h"

namespace colr {
namespace {

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

TEST(AggregateTest, EmptyAndAdd) {
  Aggregate a;
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kCount), 0.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kAvg), 0.0);
  a.Add(3.0);
  a.Add(7.0);
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kSum), 10.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kAvg), 5.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kMin), 3.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kMax), 7.0);
}

TEST(AggregateTest, MergeMatchesSequentialAdds) {
  Rng rng(1);
  Aggregate merged, reference;
  for (int part = 0; part < 5; ++part) {
    Aggregate partial;
    for (int i = 0; i < 100; ++i) {
      const double v = rng.Gaussian(10, 5);
      partial.Add(v);
      reference.Add(v);
    }
    merged.Merge(partial);
  }
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_NEAR(merged.sum, reference.sum, 1e-9);
  EXPECT_DOUBLE_EQ(merged.min, reference.min);
  EXPECT_DOUBLE_EQ(merged.max, reference.max);
}

TEST(AggregateTest, RemoveInteriorValueIsExact) {
  Aggregate a;
  a.Add(1.0);
  a.Add(5.0);
  a.Add(9.0);
  EXPECT_TRUE(a.Remove(5.0));  // strictly inside (min, max)
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.sum, 10.0);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 9.0);
}

TEST(AggregateTest, RemoveExtremeFlagsRecompute) {
  Aggregate a;
  a.Add(1.0);
  a.Add(5.0);
  a.Add(9.0);
  EXPECT_FALSE(a.Remove(9.0));  // max removed: min/max now unreliable
  EXPECT_EQ(a.count, 2);        // count/sum still exact
  EXPECT_DOUBLE_EQ(a.sum, 6.0);
}

TEST(AggregateTest, RemoveLastValueClearsExactly) {
  Aggregate a;
  a.Add(4.0);
  EXPECT_TRUE(a.Remove(4.0));
  EXPECT_TRUE(a.empty());
}

TEST(AggregateTest, OfAndToString) {
  Aggregate a = Aggregate::Of(2.5);
  EXPECT_EQ(a.count, 1);
  EXPECT_NE(a.ToString().find("count=1"), std::string::npos);
  EXPECT_EQ(Aggregate{}.ToString(), "{empty}");
}

// ---------------------------------------------------------------------------
// SlotScheme
// ---------------------------------------------------------------------------

TEST(SlotSchemeTest, SlotOfFloors) {
  SlotScheme s(1000, 4000);
  EXPECT_EQ(s.SlotOf(0), 0);
  EXPECT_EQ(s.SlotOf(999), 0);
  EXPECT_EQ(s.SlotOf(1000), 1);
  EXPECT_EQ(s.SlotOf(-1), -1);
  EXPECT_EQ(s.SlotOf(-1000), -1);
  EXPECT_EQ(s.SlotOf(-1001), -2);
}

TEST(SlotSchemeTest, WindowSizing) {
  // t_max = 4000, delta = 1000 -> 4 + 1 slots.
  SlotScheme s(1000, 4000);
  EXPECT_EQ(s.num_slots(), 5);
  EXPECT_EQ(s.newest(), 4);
  EXPECT_EQ(s.oldest(), 0);
  EXPECT_TRUE(s.InWindow(0));
  EXPECT_TRUE(s.InWindow(4));
  EXPECT_FALSE(s.InWindow(5));
  EXPECT_FALSE(s.InWindow(-1));
  // Non-divisible t_max rounds up.
  SlotScheme s2(1000, 4500);
  EXPECT_EQ(s2.num_slots(), 6);
}

TEST(SlotSchemeTest, RollAdvancesOneWay) {
  SlotScheme s(100, 400);
  EXPECT_EQ(s.RollTo(3), 0);  // already covered
  EXPECT_EQ(s.RollTo(10), 6);
  EXPECT_EQ(s.newest(), 10);
  EXPECT_EQ(s.oldest(), 6);
  EXPECT_EQ(s.RollTo(5), 0);  // never rolls back
}

TEST(SlotSchemeTest, SlotEdges) {
  SlotScheme s(250, 1000);
  EXPECT_EQ(s.SlotLowerEdge(4), 1000);
  EXPECT_EQ(s.SlotUpperEdge(4), 1250);
  for (TimeMs t : {0, 249, 250, 999, 1000, 1249}) {
    const SlotId slot = s.SlotOf(t);
    EXPECT_GE(t, s.SlotLowerEdge(slot));
    EXPECT_LT(t, s.SlotUpperEdge(slot));
  }
}

// ---------------------------------------------------------------------------
// AggregateSlotCache
// ---------------------------------------------------------------------------

TEST(AggregateSlotCacheTest, AddAndGet) {
  SlotScheme s(100, 400);
  AggregateSlotCache cache(s.num_slots());
  cache.Add(s, 2, 5.0);
  cache.Add(s, 2, 7.0);
  cache.Add(s, 4, 1.0);
  EXPECT_EQ(cache.Get(s, 2).count, 2);
  EXPECT_DOUBLE_EQ(cache.Get(s, 2).sum, 12.0);
  EXPECT_EQ(cache.Get(s, 3).count, 0);
  EXPECT_EQ(cache.Get(s, 4).count, 1);
}

TEST(AggregateSlotCacheTest, LazyResetAfterRoll) {
  SlotScheme s(100, 400);
  AggregateSlotCache cache(s.num_slots());
  cache.Add(s, 0, 5.0);
  s.RollTo(5);  // slot 0 slides out; slot 5 reuses its ring position
  EXPECT_EQ(cache.Get(s, 0).count, 0);  // out of window
  EXPECT_EQ(cache.Get(s, 5).count, 0);  // stale position reads empty
  cache.Add(s, 5, 3.0);
  EXPECT_EQ(cache.Get(s, 5).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 5).sum, 3.0);  // old data not leaked
}

TEST(AggregateSlotCacheTest, QueryNewerThanMergesYoungerSlotsOnly) {
  SlotScheme s(100, 500);
  AggregateSlotCache cache(s.num_slots());
  // Window covers slots 0..5.
  for (SlotId slot = 0; slot <= 5; ++slot) {
    cache.Add(s, slot, static_cast<double>(slot));
  }
  int merged = 0;
  Aggregate agg = cache.QueryNewerThan(s, 2, &merged);
  EXPECT_EQ(agg.count, 3);  // slots 3, 4, 5
  EXPECT_DOUBLE_EQ(agg.sum, 12.0);
  EXPECT_EQ(merged, 3);
  // Query slot beyond newest: nothing usable.
  EXPECT_EQ(cache.QueryNewerThan(s, 5).count, 0);
  // Query slot before the window start: everything usable.
  EXPECT_EQ(cache.QueryNewerThan(s, -10).count, 6);
}

TEST(AggregateSlotCacheTest, RemoveAndSet) {
  SlotScheme s(100, 400);
  AggregateSlotCache cache(s.num_slots());
  cache.Add(s, 1, 2.0);
  cache.Add(s, 1, 8.0);
  cache.Add(s, 1, 5.0);
  EXPECT_TRUE(cache.Remove(s, 1, 5.0));
  EXPECT_FALSE(cache.Remove(s, 1, 8.0));  // extremum: recompute needed
  Aggregate fixed;
  fixed.Add(2.0);
  cache.Set(s, 1, fixed);
  EXPECT_EQ(cache.Get(s, 1).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 1).max, 2.0);
}

TEST(AggregateSlotCacheTest, RefusesOutOfWindowMutations) {
  SlotScheme s(100, 300);  // 4 slots; window 0..3
  AggregateSlotCache cache(s.num_slots());
  s.RollTo(7);  // window now 4..7
  cache.Add(s, 6, 5.0);
  ASSERT_EQ(cache.Get(s, 6).count, 1);

  // Slot 2 shares ring position 2 with in-window slot 6. A late
  // mutation for it must not re-tag the position and wipe slot 6.
  cache.Add(s, 2, 9.0);
  EXPECT_EQ(cache.Get(s, 6).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 6).sum, 5.0);
  Aggregate merged;
  merged.Add(1.0);
  cache.Merge(s, 2, merged);
  cache.Set(s, 2, merged);
  EXPECT_EQ(cache.Get(s, 6).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 6).sum, 5.0);
  // An out-of-window Remove has nothing to undo: reports invertible
  // (no recompute cascade) and leaves the colliding slot alone.
  EXPECT_TRUE(cache.Remove(s, 2, 9.0));
  EXPECT_EQ(cache.Get(s, 6).count, 1);
  // Slots beyond the window head are refused too (slot 8 collides
  // with in-window slot 4 at ring position 0).
  cache.Add(s, 4, 2.0);
  cache.Add(s, 8, 3.0);
  EXPECT_EQ(cache.Get(s, 4).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 4).sum, 2.0);
}

// ---------------------------------------------------------------------------
// ReadingStore
// ---------------------------------------------------------------------------

Reading MakeReading(SensorId id, TimeMs ts, TimeMs expiry, double v) {
  return Reading{id, ts, expiry, v};
}

TEST(ReadingStoreTest, InsertGetReplace) {
  SlotScheme s(1000, 5000);
  ReadingStore store(10);
  auto out = store.Insert(s, MakeReading(1, 0, 2500, 10.0));
  EXPECT_FALSE(out.replaced);
  EXPECT_TRUE(out.evicted.empty());
  ASSERT_NE(store.Get(1), nullptr);
  EXPECT_DOUBLE_EQ(store.Get(1)->value, 10.0);
  // Replacing returns the old reading.
  out = store.Insert(s, MakeReading(1, 100, 2600, 20.0));
  EXPECT_TRUE(out.replaced);
  EXPECT_DOUBLE_EQ(out.old_reading.value, 10.0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.Get(1)->value, 20.0);
  EXPECT_EQ(store.Get(99), nullptr);
}

TEST(ReadingStoreTest, CapacityEvictsOldestSlotLeastRecentlyFetched) {
  SlotScheme s(1000, 5000);
  ReadingStore store(3);
  // Two readings in slot 1, one in slot 3.
  store.Insert(s, MakeReading(1, 0, 1100, 1.0));
  store.Insert(s, MakeReading(2, 0, 1200, 2.0));
  store.Insert(s, MakeReading(3, 0, 3500, 3.0));
  // Touch sensor 1 so sensor 2 is the LRF entry in the oldest slot.
  store.Touch(1);
  auto out = store.Insert(s, MakeReading(4, 0, 4500, 4.0));
  ASSERT_EQ(out.evicted.size(), 1u);
  EXPECT_EQ(out.evicted[0].sensor, 2u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_NE(store.Get(1), nullptr);
  EXPECT_EQ(store.Get(2), nullptr);
}

TEST(ReadingStoreTest, NeverEvictsJustInsertedReading) {
  SlotScheme s(1000, 5000);
  ReadingStore store(1);
  store.Insert(s, MakeReading(1, 0, 1100, 1.0));
  auto out = store.Insert(s, MakeReading(2, 0, 900, 2.0));
  // Sensor 2's slot is the oldest; eviction must pick sensor 1.
  ASSERT_EQ(out.evicted.size(), 1u);
  EXPECT_EQ(out.evicted[0].sensor, 1u);
  EXPECT_NE(store.Get(2), nullptr);
}

TEST(ReadingStoreTest, ExpungeExpiredSlots) {
  SlotScheme s(1000, 3000);  // slots 0..3
  ReadingStore store(100);
  store.Insert(s, MakeReading(1, 0, 500, 1.0));    // slot 0
  store.Insert(s, MakeReading(2, 0, 1500, 2.0));   // slot 1
  store.Insert(s, MakeReading(3, 0, 3500, 3.0));   // slot 3
  s.RollTo(5);  // window now 2..5
  auto expunged = store.ExpungeExpiredSlots(s);
  ASSERT_EQ(expunged.size(), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(1), nullptr);
  EXPECT_EQ(store.Get(2), nullptr);
  EXPECT_NE(store.Get(3), nullptr);
}

TEST(ReadingStoreTest, ExpungeAfterRollPastWholeWindow) {
  SlotScheme s(1000, 3000);  // 4 slots; window 0..3
  ReadingStore store(100);
  store.Insert(s, MakeReading(1, 0, 500, 1.0));    // slot 0
  store.Insert(s, MakeReading(2, 0, 1500, 2.0));   // slot 1
  store.Insert(s, MakeReading(3, 0, 3500, 3.0));   // slot 3
  // Roll more than num_slots forward in one step: every occupied slot
  // slides out, including ones whose ring position is reused by the
  // new window.
  s.RollTo(s.newest() + 2 * s.num_slots() + 1);
  auto expunged = store.ExpungeExpiredSlots(s);
  EXPECT_EQ(expunged.size(), 3u);
  EXPECT_EQ(store.size(), 0u);
  // The store is immediately usable in the new window.
  store.Insert(s, MakeReading(1, 0, s.SlotLowerEdge(s.newest()) + 1, 4.0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.Get(1), nullptr);
}

TEST(ReadingStoreTest, ReplacementAtCapacityEvictsNothing) {
  SlotScheme s(1000, 5000);
  ReadingStore store(2);
  store.Insert(s, MakeReading(1, 0, 1100, 1.0));
  store.Insert(s, MakeReading(2, 0, 3500, 2.0));
  // Replacing sensor 1's reading (even into a different slot) keeps
  // the store at capacity: no eviction, and never of sensor 1 itself.
  auto out = store.Insert(s, MakeReading(1, 100, 4500, 9.0));
  EXPECT_TRUE(out.replaced);
  EXPECT_DOUBLE_EQ(out.old_reading.value, 1.0);
  EXPECT_TRUE(out.evicted.empty());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.Get(1)->value, 9.0);
  EXPECT_NE(store.Get(2), nullptr);
}

TEST(ReadingStoreTest, EraseAndClear) {
  SlotScheme s(1000, 3000);
  ReadingStore store(100);
  store.Insert(s, MakeReading(1, 0, 500, 1.0));
  store.Insert(s, MakeReading(2, 0, 1500, 2.0));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_FALSE(store.Erase(1));
  EXPECT_EQ(store.size(), 1u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Get(2), nullptr);
}

TEST(ReadingStoreTest, UnboundedWhenCapacityZero) {
  SlotScheme s(1000, 3000);
  ReadingStore store(0);
  for (SensorId i = 0; i < 1000; ++i) {
    store.Insert(s, MakeReading(i, 0, 1500, 1.0));
  }
  EXPECT_EQ(store.size(), 1000u);
}

TEST(ReadingStoreTest, StressAgainstModelOfSize) {
  // Property: size never exceeds capacity; Get returns the last
  // inserted reading for any live sensor.
  Rng rng(9);
  SlotScheme s(500, 4000);
  ReadingStore store(50);
  std::vector<double> last_value(200, -1.0);
  TimeMs now = 0;
  for (int step = 0; step < 5000; ++step) {
    now += rng.UniformInt(200);
    const SensorId sid = static_cast<SensorId>(rng.UniformInt(200));
    const TimeMs expiry = now + 500 + rng.UniformInt(3500);
    s.RollTo(s.SlotOf(expiry));
    for (const Reading& r : store.ExpungeExpiredSlots(s)) {
      last_value[r.sensor] = -1.0;
    }
    auto out = store.Insert(s, MakeReading(sid, now, expiry, step));
    last_value[sid] = step;
    for (const Reading& r : out.evicted) last_value[r.sensor] = -1.0;
    ASSERT_LE(store.size(), 50u);
    const Reading* got = store.Get(sid);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(got->value, step);
  }
  // Every sensor the model believes live must be present.
  for (SensorId i = 0; i < 200; ++i) {
    if (last_value[i] >= 0) {
      const Reading* r = store.Get(i);
      ASSERT_NE(r, nullptr) << "sensor " << i;
      EXPECT_DOUBLE_EQ(r->value, last_value[i]);
    } else {
      EXPECT_EQ(store.Get(i), nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Torn-window regression: RollTo concurrent with QueryNewerThan
// ---------------------------------------------------------------------------

// Version tags are monotone per ring position and bump on every
// mutation, including the lazy re-tag to a new slot id — the property
// ColrTree's recompute-from-children relies on to detect concurrent
// slot mutation (no ABA through re-tagging).
TEST(AggregateSlotCacheTest, SlotVersionBumpsOnEveryMutation) {
  SlotScheme s(10, 30);  // 4 slots, window 0..3
  AggregateSlotCache cache(s.num_slots());

  EXPECT_EQ(cache.SlotVersion(s, 99), 0u);  // out of window: no tag
  const uint64_t v0 = cache.SlotVersion(s, 2);
  cache.Add(s, 2, 5.0);  // re-tag + add
  const uint64_t v1 = cache.SlotVersion(s, 2);
  EXPECT_GT(v1, v0);
  cache.Remove(s, 2, 5.0);
  const uint64_t v2 = cache.SlotVersion(s, 2);
  EXPECT_GT(v2, v1);
  Aggregate agg;
  agg.Add(1.0);
  cache.Set(s, 2, agg);
  const uint64_t v3 = cache.SlotVersion(s, 2);
  EXPECT_GT(v3, v2);
  // The roll re-tags position RingIndex(2) when slot 6 claims it; the
  // tag keeps growing through the identity change.
  s.RollTo(6);
  cache.Add(s, 6, 2.0);
  EXPECT_GT(cache.SlotVersion(s, 6), v3);
}

// The lookup must read the window head exactly once: with the head
// re-read per iteration, a roll concurrent with the scan merges a mix
// of slots from two window positions (or drops slots that slid out
// mid-scan). Protocol mirrors ColrTree: cache *content* only mutates
// under a lock that the reader shares, while RollTo advances the
// atomic head outside it — exactly the exposure queries have in the
// live tree, where a roll only takes the epoch latch, not every
// node's stripe.
TEST(AggregateSlotCacheTest, QueryNewerThanIsSnapshotConsistentUnderRolls) {
  SlotScheme s(10, 30);  // 4 slots
  AggregateSlotCache cache(s.num_slots());
  std::mutex content_mutex;

  // Occupy the initial window: slot k holds one value == k.
  for (SlotId k = s.oldest(); k <= s.newest(); ++k) {
    cache.Add(s, k, static_cast<double>(k));
  }

  constexpr SlotId kLastSlot = 4000;
  std::atomic<bool> done{false};
  std::thread roller([&] {
    for (SlotId next = s.newest() + 1; next <= kLastSlot; ++next) {
      s.RollTo(next);  // head moves with no lock held
      std::lock_guard<std::mutex> lock(content_mutex);
      cache.Add(s, next, static_cast<double>(next));
    }
    done.store(true, std::memory_order_release);
  });

  // Keep querying while the roller runs, and for a floor of
  // iterations regardless — on a single-core host the roller can
  // finish before this thread is scheduled at all.
  int64_t lookups = 0;
  while (!done.load(std::memory_order_acquire) || lookups < 100) {
    std::lock_guard<std::mutex> lock(content_mutex);
    int merged = 0;
    const Aggregate agg = cache.QueryNewerThan(s, -1000, &merged);
    ++lookups;
    // Valid snapshots: all four in-window slots occupied, or three
    // plus the freshly rolled-in head whose Add is still pending.
    ASSERT_GE(agg.count, s.num_slots() - 1);
    ASSERT_LE(agg.count, s.num_slots());
    ASSERT_EQ(merged, agg.count);
    // All merged values must come from ONE window position: a torn
    // scan mixes pre- and post-roll slots, whose ids (== values) are
    // more than a window apart.
    ASSERT_LE(agg.max - agg.min, static_cast<double>(s.num_slots() - 1));
  }
  roller.join();
  EXPECT_GT(lookups, 0);
}

}  // namespace
}  // namespace colr
