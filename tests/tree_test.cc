#include "core/tree.h"

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sensor/network.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

std::vector<SensorInfo> MakeSensors(int n, uint64_t seed,
                                    TimeMs expiry = 5 * kMin,
                                    double availability = 1.0) {
  Rng rng(seed);
  return MakeUniformSensors(n, Rect::FromCorners(0, 0, 100, 100), expiry,
                            availability, rng);
}

ColrTree::Options SmallTreeOptions(size_t capacity = 0) {
  ColrTree::Options opts;
  opts.cluster.fanout = 4;
  opts.cluster.leaf_capacity = 8;
  opts.slot_delta_ms = kMin;
  opts.t_max_ms = 5 * kMin;
  opts.cache_capacity = capacity;
  return opts;
}

Reading ReadingFor(const SensorInfo& s, TimeMs now, double value) {
  return Reading{s.id, now, now + s.expiry_ms, value};
}

// ---------------------------------------------------------------------------
// Structure
// ---------------------------------------------------------------------------

TEST(ColrTreeTest, StructureBasics) {
  ColrTree tree(MakeSensors(500, 1), SmallTreeOptions());
  EXPECT_EQ(tree.root(), 0);
  EXPECT_GT(tree.height(), 1);
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.Weight(), 500);
  EXPECT_EQ(root.level, 0);
  // Every sensor is under exactly one leaf and levels are consistent.
  std::set<SensorId> seen;
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(id);
    if (n.IsLeaf()) {
      for (int j = n.item_begin; j < n.item_end; ++j) {
        EXPECT_TRUE(seen.insert(tree.sensor_order()[j]).second);
        EXPECT_EQ(tree.LeafOf(tree.sensor_order()[j]),
                  static_cast<int>(id));
      }
    } else {
      for (int c : tree.children(static_cast<int>(id))) {
        EXPECT_EQ(tree.node(c).parent, static_cast<int>(id));
        EXPECT_EQ(tree.node(c).level, n.level + 1);
        EXPECT_TRUE(n.bbox.Contains(tree.node(c).bbox));
      }
    }
  }
  EXPECT_EQ(seen.size(), 500u);
}

TEST(ColrTreeTest, NodeMetadata) {
  auto sensors = MakeSensors(200, 2);
  // Heterogeneous availability and expiry.
  Rng rng(3);
  for (auto& s : sensors) {
    s.availability = rng.Uniform(0.5, 1.0);
    s.expiry_ms = static_cast<TimeMs>(rng.Uniform(1, 5)) * kMin;
  }
  ColrTree tree(sensors, SmallTreeOptions());
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(id);
    double avail_sum = 0.0;
    TimeMs max_expiry = 0;
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const auto& s = tree.sensor(tree.sensor_order()[j]);
      avail_sum += s.availability;
      max_expiry = std::max(max_expiry, s.expiry_ms);
    }
    EXPECT_NEAR(tree.mean_availability(static_cast<int>(id)),
                avail_sum / n.Weight(), 1e-12);
    EXPECT_EQ(n.max_expiry_ms, max_expiry);
  }
}

TEST(ColrTreeTest, AncestorAtLevel) {
  ColrTree tree(MakeSensors(500, 4), SmallTreeOptions());
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.node(id).IsLeaf()) continue;
    const int anc = tree.AncestorAtLevel(static_cast<int>(id), 1);
    EXPECT_LE(tree.node(anc).level, 1);
    EXPECT_TRUE(tree.node(anc).bbox.Contains(tree.node(id).bbox));
    EXPECT_EQ(tree.AncestorAtLevel(static_cast<int>(id), 0), tree.root());
  }
}

TEST(ColrTreeTest, CountSensorsInRegionMatchesBruteForce) {
  auto sensors = MakeSensors(1000, 5);
  ColrTree tree(sensors, SmallTreeOptions());
  Rng rng(6);
  for (int q = 0; q < 100; ++q) {
    const Rect region =
        Rect::FromCorners(rng.Uniform(0, 100), rng.Uniform(0, 100),
                          rng.Uniform(0, 100), rng.Uniform(0, 100));
    int expected = 0;
    for (const auto& s : sensors) {
      if (region.Contains(s.location)) ++expected;
    }
    EXPECT_EQ(tree.CountSensorsInRegion(region), expected);
  }
}

TEST(ColrTreeTest, SensorsUnderInRegion) {
  auto sensors = MakeSensors(300, 7);
  ColrTree tree(sensors, SmallTreeOptions());
  const Rect region = Rect::FromCorners(25, 25, 75, 75);
  auto under_root = tree.SensorsUnderInRegion(tree.root(), region);
  std::set<SensorId> expected;
  for (const auto& s : sensors) {
    if (region.Contains(s.location)) expected.insert(s.id);
  }
  EXPECT_EQ(std::set<SensorId>(under_root.begin(), under_root.end()),
            expected);
}

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

TEST(ColrTreeCacheTest, InsertPropagatesToRoot) {
  auto sensors = MakeSensors(100, 8);
  ColrTree tree(sensors, SmallTreeOptions());
  tree.InsertReading(ReadingFor(sensors[0], 0, 12.0));
  tree.InsertReading(ReadingFor(sensors[1], 0, 30.0));
  const SlotId slot = tree.scheme().SlotOf(sensors[0].expiry_ms);
  const Aggregate& root_agg =
      tree.slot_cache(tree.root()).Get(tree.scheme(), slot);
  EXPECT_EQ(root_agg.count, 2);
  EXPECT_DOUBLE_EQ(root_agg.sum, 42.0);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

TEST(ColrTreeCacheTest, ReplacementDecrementsOldValue) {
  auto sensors = MakeSensors(100, 9);
  ColrTree tree(sensors, SmallTreeOptions());
  tree.InsertReading(ReadingFor(sensors[0], 0, 10.0));
  tree.InsertReading(ReadingFor(sensors[0], 1000, 99.0));
  EXPECT_EQ(tree.CachedReadingCount(), 1u);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
  // Sum across all slots at the root equals the replacement value.
  Aggregate total =
      tree.slot_cache(tree.root()).QueryNewerThan(tree.scheme(), -1000000);
  EXPECT_EQ(total.count, 1);
  EXPECT_DOUBLE_EQ(total.sum, 99.0);
}

TEST(ColrTreeCacheTest, MinMaxRecomputeOnExtremeRemoval) {
  auto sensors = MakeSensors(100, 10);
  ColrTree tree(sensors, SmallTreeOptions());
  // Three sensors in (potentially) different leaves, same slot.
  tree.InsertReading(ReadingFor(sensors[0], 0, 1.0));
  tree.InsertReading(ReadingFor(sensors[1], 0, 50.0));
  tree.InsertReading(ReadingFor(sensors[2], 0, 100.0));
  // Replace the max with a mid value: root min/max must be recomputed.
  tree.InsertReading(ReadingFor(sensors[2], 1, 25.0));
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
  Aggregate total =
      tree.slot_cache(tree.root()).QueryNewerThan(tree.scheme(), -1000000);
  EXPECT_EQ(total.count, 3);
  EXPECT_DOUBLE_EQ(total.max, 50.0);
  EXPECT_DOUBLE_EQ(total.min, 1.0);
}

TEST(ColrTreeCacheTest, CapacityEvictionKeepsAggregatesConsistent) {
  auto sensors = MakeSensors(200, 11);
  ColrTree tree(sensors, SmallTreeOptions(/*capacity=*/50));
  TimeMs now = 0;
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    const auto& s = sensors[rng.UniformInt(sensors.size())];
    tree.InsertReading(ReadingFor(s, now, rng.Uniform(0, 100)));
    now += 100;
  }
  EXPECT_LE(tree.CachedReadingCount(), 50u);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

// A touched list spans several leaves and shards; its sensors become
// the most recently fetched, in list order, and ids outside the
// catalog are skipped.
TEST(ColrTreeCacheTest, TouchedListIsFetchedInListOrder) {
  auto sensors = MakeSensors(64, 13);
  ColrTree tree(sensors, SmallTreeOptions(/*capacity=*/40));
  for (SensorId sid = 0; sid < 40; ++sid) {
    tree.InsertReading(ReadingFor(sensors[sid], 0, 1.0));
  }
  std::vector<SensorId> touched{static_cast<SensorId>(sensors.size() + 5)};
  for (SensorId sid = 38;; sid -= 2) {
    touched.push_back(sid);
    if (sid == 0) break;
  }
  tree.TouchCached(touched);

  // One slot holds everything: the 20 untouched sensors are the least
  // recently fetched, then the touched ones from the front of the list.
  for (SensorId sid = 40; sid < 61; ++sid) {
    tree.InsertReading(ReadingFor(sensors[sid], 0, 1.0));
  }
  for (SensorId sid = 1; sid < 40; sid += 2) {
    EXPECT_FALSE(tree.CachedReading(sid).has_value()) << sid;
  }
  EXPECT_FALSE(tree.CachedReading(38).has_value());
  for (SensorId sid = 0; sid < 38; sid += 2) {
    EXPECT_TRUE(tree.CachedReading(sid).has_value()) << sid;
  }
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

TEST(ColrTreeCacheTest, WindowRollExpungesExpired) {
  auto sensors = MakeSensors(50, 13);
  ColrTree tree(sensors, SmallTreeOptions());
  tree.InsertReading(ReadingFor(sensors[0], 0, 5.0));
  EXPECT_EQ(tree.CachedReadingCount(), 1u);
  // Jump far into the future: the reading's slot slides out.
  tree.AdvanceTo(kMsPerHour);
  EXPECT_EQ(tree.CachedReadingCount(), 0u);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
  // Cache usable again after the roll.
  tree.InsertReading(ReadingFor(sensors[0], kMsPerHour, 7.0));
  EXPECT_EQ(tree.CachedReadingCount(), 1u);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

// Regression for the late-reading ring-index collision: a reading
// whose expiry slot already slid out of the window must be dropped,
// not cached. With delta = 1 min and t_max + stale margin = 10 min the
// scheme has 11 slots, so out-of-window slot S and in-window slot
// S + 11 share a ring position; propagating the late reading used to
// re-tag that position and wipe the in-window aggregate while the
// store kept the live reading — CheckCacheConsistency() failed.
TEST(ColrTreeCacheTest, LateReadingIsDroppedNotCorrupting) {
  auto sensors = MakeSensors(100, 21);
  ColrTree tree(sensors, SmallTreeOptions());
  const SlotScheme& scheme = tree.scheme();
  ASSERT_EQ(scheme.num_slots(), 11);

  // Move the window well forward: slots 15..25 (times 15..26 min).
  tree.AdvanceTo(20 * kMin);
  ASSERT_EQ(scheme.oldest(), 15);

  // A live reading in slot 16 — ring position 16 % 11 = 5.
  tree.InsertReading(
      Reading{sensors[0].id, 15 * kMin, 16 * kMin + 1, 40.0});
  const SlotId live_slot = scheme.SlotOf(16 * kMin + 1);
  ASSERT_EQ(live_slot, 16);
  const Aggregate& before =
      tree.slot_cache(tree.root()).Get(scheme, live_slot);
  ASSERT_EQ(before.count, 1);

  // A late reading expiring in slot 5 = 16 - 11: same ring position,
  // but its slot left the window long ago.
  tree.InsertReading(Reading{sensors[1].id, 0, 5 * kMin + 1, 99.0});
  EXPECT_EQ(tree.maintenance().late_readings_dropped.load(), 1);
  EXPECT_EQ(tree.CachedReadingCount(), 1u);
  const Aggregate& after =
      tree.slot_cache(tree.root()).Get(scheme, live_slot);
  EXPECT_EQ(after.count, 1);
  EXPECT_DOUBLE_EQ(after.sum, 40.0);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

TEST(ColrTreeCacheTest, RollPastWholeWindowCountsMaintenance) {
  auto sensors = MakeSensors(60, 22);
  ColrTree tree(sensors, SmallTreeOptions());
  tree.InsertReading(ReadingFor(sensors[0], 0, 1.0));
  tree.InsertReading(ReadingFor(sensors[1], 0, 2.0));
  tree.InsertReading(ReadingFor(sensors[2], 30 * 1000, 3.0));
  ASSERT_EQ(tree.CachedReadingCount(), 3u);

  // One jump of far more than num_slots: a single roll event sliding
  // many slots, expunging every cached reading.
  const int64_t slots_before = tree.scheme().newest();
  tree.AdvanceTo(3 * kMsPerHour);
  EXPECT_EQ(tree.maintenance().rolls.load(), 1);
  EXPECT_EQ(tree.maintenance().slots_rolled.load(),
            tree.scheme().newest() - slots_before);
  EXPECT_GT(tree.maintenance().slots_rolled.load(),
            static_cast<int64_t>(tree.scheme().num_slots()));
  EXPECT_EQ(tree.maintenance().readings_expunged.load(), 3);
  EXPECT_EQ(tree.CachedReadingCount(), 0u);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());

  // A second advance with nothing to do is not a roll event.
  tree.AdvanceTo(3 * kMsPerHour);
  EXPECT_EQ(tree.maintenance().rolls.load(), 1);
}

TEST(ColrTreeCacheTest, RandomizedMaintenanceStress) {
  auto sensors = MakeSensors(150, 14);
  Rng rng(15);
  for (auto& s : sensors) {
    s.expiry_ms = static_cast<TimeMs>(rng.Uniform(1, 5)) * kMin;
  }
  ColrTree tree(sensors, SmallTreeOptions(/*capacity=*/40));
  TimeMs now = 0;
  for (int step = 0; step < 2000; ++step) {
    now += rng.UniformInt(5000);
    const auto& s = sensors[rng.UniformInt(sensors.size())];
    tree.InsertReading(ReadingFor(s, now, rng.Uniform(-50, 50)));
    if (step % 200 == 0) {
      ASSERT_TRUE(tree.CheckCacheConsistency().ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

// ---------------------------------------------------------------------------
// Cache lookup
// ---------------------------------------------------------------------------

TEST(ColrTreeLookupTest, QuerySlotIsFreshnessBoundSlot) {
  auto sensors = MakeSensors(100, 16);
  ColrTree tree(sensors, SmallTreeOptions());
  // The query slot is the slot holding the freshness bound now - S.
  EXPECT_EQ(tree.QuerySlot(10 * kMin, 5 * kMin),
            tree.scheme().SlotOf(5 * kMin));
  EXPECT_EQ(tree.QuerySlot(10 * kMin, kMin),
            tree.scheme().SlotOf(9 * kMin));
}

TEST(ColrTreeLookupTest, LeafLookupExactAndInternalConservative) {
  auto sensors = MakeSensors(100, 17);
  ColrTree tree(sensors, SmallTreeOptions());
  const TimeMs now = 10 * kMin;
  tree.AdvanceTo(now);
  tree.InsertReading(ReadingFor(sensors[0], now, 5.0));
  const int leaf = tree.LeafOf(sensors[0].id);

  auto lookup = tree.LookupCache(leaf, now, 5 * kMin);
  EXPECT_EQ(lookup.agg.count, 1);
  ASSERT_EQ(lookup.used_sensors.size(), 1u);
  EXPECT_EQ(lookup.used_sensors[0], sensors[0].id);

  // Once the reading's validity ends before the freshness bound, the
  // lookup must not use it: reading expires at now + 5 min; at
  // now + 6 min with staleness 1 min the bound equals the expiry.
  auto later = tree.LookupCache(leaf, now + 6 * kMin, kMin);
  EXPECT_EQ(later.agg.count, 0);
  // With a generous staleness window it is usable again.
  auto relaxed = tree.LookupCache(leaf, now + 6 * kMin, 3 * kMin);
  EXPECT_EQ(relaxed.agg.count, 1);

  // Internal (root) lookup: conservative but must also see it for a
  // permissive staleness.
  auto root_lookup = tree.LookupCache(tree.root(), now, 5 * kMin);
  EXPECT_EQ(root_lookup.agg.count, 1);
}

TEST(ColrTreeLookupTest, InternalLookupNeverUsesExpiredOrStale) {
  // Property: for random insert times and query times, the internal
  // (slot rule) lookup count never exceeds the exact count of usable
  // readings, and everything it reports is genuinely usable.
  auto sensors = MakeSensors(120, 18);
  Rng rng(19);
  for (auto& s : sensors) {
    s.expiry_ms = static_cast<TimeMs>(rng.Uniform(1, 5)) * kMin;
  }
  ColrTree tree(sensors, SmallTreeOptions());
  TimeMs now = 0;
  for (int step = 0; step < 300; ++step) {
    now += rng.UniformInt(30000);
    const auto& s = sensors[rng.UniformInt(sensors.size())];
    tree.AdvanceTo(now);
    tree.InsertReading(ReadingFor(s, now, 1.0));
    const TimeMs staleness =
        static_cast<TimeMs>(rng.Uniform(0.5, 6)) * kMin;
    // Exact usable count by brute force over the store: usable iff
    // the reading was still valid within the staleness window.
    int exact = 0;
    for (const auto& si : sensors) {
      const std::optional<Reading> r = tree.CachedReading(si.id);
      if (r.has_value() && r->ValidAt(now - staleness)) {
        ++exact;
      }
    }
    const int64_t conservative =
        tree.LookupCache(tree.root(), now, staleness).agg.count;
    EXPECT_LE(conservative, exact) << "step " << step;
  }
}

TEST(ColrTreeLookupTest, LeafRegionFilter) {
  auto sensors = MakeSensors(100, 20);
  ColrTree tree(sensors, SmallTreeOptions());
  const TimeMs now = kMin;
  tree.AdvanceTo(now);
  for (const auto& s : sensors) {
    tree.InsertReading(ReadingFor(s, now, 1.0));
  }
  // A filter excluding the sensor's location yields no hits from that
  // leaf for that sensor.
  const int leaf = tree.LeafOf(sensors[0].id);
  const Point loc = sensors[0].location;
  Rect excluding = Rect::FromCorners(loc.x + 1, loc.y + 1, loc.x + 2,
                                     loc.y + 2);
  auto filtered = tree.LookupCache(leaf, now, 5 * kMin, &excluding);
  for (SensorId sid : filtered.used_sensors) {
    EXPECT_NE(sid, sensors[0].id);
    EXPECT_TRUE(excluding.Contains(tree.sensor(sid).location));
  }
  auto unfiltered = tree.LookupCache(leaf, now, 5 * kMin);
  EXPECT_GE(unfiltered.agg.count, 1);
}

}  // namespace
}  // namespace colr
