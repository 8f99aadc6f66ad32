#include "core/engine.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "workload/live_local.h"

namespace colr {

// Friend of ColrEngine: drives the private ProbeBatch directly so the
// availability accounting can be pinned down for crafted batches.
struct ColrEngineTestPeer {
  using Accounting = ColrEngine::ProbeAccounting;

  static std::vector<Reading> ProbeBatch(ColrEngine& engine,
                                         const std::vector<SensorId>& ids) {
    Accounting acct;
    return engine.ProbeBatch(ids, &acct);
  }

  static void FinishProbeStats(const Accounting& acct, double elapsed_ms,
                               QueryStats* stats) {
    ColrEngine::FinishProbeStats(acct, elapsed_ms, stats);
  }
};

namespace {

constexpr TimeMs kMin = kMsPerMinute;

struct Rig {
  explicit Rig(int n, uint64_t seed, double availability = 1.0,
               size_t capacity = 0,
               const SensorNetwork::Options& net = SensorNetwork::Options())
      : clock(60 * kMin) {
    Rng rng(seed);
    auto sensors = MakeUniformSensors(
        n, Rect::FromCorners(0, 0, 100, 100), 5 * kMin, availability, rng);
    network =
        std::make_unique<SensorNetwork>(std::move(sensors), &clock, net);
    network->set_value_fn(
        [](const SensorInfo& s, TimeMs) { return s.location.x; });
    ColrTree::Options topts;
    topts.cluster.fanout = 4;
    topts.cluster.leaf_capacity = 8;
    topts.slot_delta_ms = kMin;
    topts.t_max_ms = 5 * kMin;
    topts.cache_capacity = capacity;
    tree = std::make_unique<ColrTree>(network->sensors(), topts);
  }

  std::unique_ptr<ColrEngine> Engine(ColrEngine::Mode mode) {
    ColrEngine::Options opts;
    opts.mode = mode;
    return std::make_unique<ColrEngine>(tree.get(), network.get(), opts);
  }

  SimClock clock;
  std::unique_ptr<SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
};

Query MakeQuery(const Rect& region, int sample_size = 0,
                TimeMs staleness = 5 * kMin) {
  Query q;
  q.region = QueryRegion::FromRect(region);
  q.staleness_ms = staleness;
  q.sample_size = sample_size;
  q.cluster_level = 2;
  return q;
}

// ---------------------------------------------------------------------------
// RTree mode (no cache, no sampling): exact results, probes everything.
// ---------------------------------------------------------------------------

TEST(EngineRTreeTest, ProbesEverySensorInRegion) {
  Rig rig(1000, 1);
  auto engine = rig.Engine(ColrEngine::Mode::kRTree);
  const Rect region = Rect::FromCorners(20, 20, 80, 80);
  const int in_region = rig.tree->CountSensorsInRegion(region);
  QueryResult result = engine->Execute(MakeQuery(region));
  EXPECT_EQ(result.stats.sensors_probed, in_region);
  EXPECT_EQ(result.stats.probe_successes, in_region);  // availability 1
  EXPECT_EQ(result.Total().count, in_region);
  EXPECT_EQ(result.stats.cache_readings_used, 0);
  EXPECT_EQ(result.stats.cached_nodes_accessed, 0);
  // Repeating the query re-probes everything (no cache).
  QueryResult again = engine->Execute(MakeQuery(region));
  EXPECT_EQ(again.stats.sensors_probed, in_region);
}

TEST(EngineRTreeTest, ResultValuesAreActualReadings) {
  Rig rig(500, 2);
  auto engine = rig.Engine(ColrEngine::Mode::kRTree);
  const Rect region = Rect::FromCorners(0, 0, 50, 100);
  QueryResult result = engine->Execute(MakeQuery(region));
  // Value function returns x coordinate: all within [0, 50].
  const Aggregate total = result.Total();
  EXPECT_GE(total.min, 0.0);
  EXPECT_LE(total.max, 50.0);
}

TEST(EngineRTreeTest, NodeTraversalGrowsWithRegion) {
  Rig rig(2000, 3);
  auto engine = rig.Engine(ColrEngine::Mode::kRTree);
  auto small = engine->Execute(MakeQuery(Rect::FromCorners(0, 0, 10, 10)));
  auto large = engine->Execute(MakeQuery(Rect::FromCorners(0, 0, 90, 90)));
  EXPECT_GT(large.stats.nodes_traversed, small.stats.nodes_traversed);
}

// ---------------------------------------------------------------------------
// Hierarchical cache mode.
// ---------------------------------------------------------------------------

TEST(EngineHierTest, SecondQueryServedFromCache) {
  Rig rig(1000, 4);
  auto engine = rig.Engine(ColrEngine::Mode::kHierCache);
  const Rect region = Rect::FromCorners(20, 20, 80, 80);
  QueryResult first = engine->Execute(MakeQuery(region));
  const int in_region = rig.tree->CountSensorsInRegion(region);
  EXPECT_EQ(first.stats.sensors_probed, in_region);
  // Immediately re-issue: everything is fresh in cache.
  QueryResult second = engine->Execute(MakeQuery(region));
  EXPECT_EQ(second.stats.sensors_probed, 0);
  EXPECT_GT(second.stats.cached_nodes_accessed, 0);
  EXPECT_EQ(second.stats.result_size, in_region);
  // Counts agree with the exact answer.
  EXPECT_EQ(second.Total().count, in_region);
}

TEST(EngineHierTest, StalenessForcesReprobe) {
  Rig rig(500, 5);
  auto engine = rig.Engine(ColrEngine::Mode::kHierCache);
  const Rect region = Rect::FromCorners(10, 10, 90, 90);
  engine->Execute(MakeQuery(region));
  // Advance so the readings (expiry +5 min) ended before the
  // freshness bound now - 5 min: the cache is useless.
  rig.clock.AdvanceMs(11 * kMin);
  QueryResult later = engine->Execute(MakeQuery(region));
  EXPECT_EQ(later.stats.sensors_probed,
            rig.tree->CountSensorsInRegion(region));
}

TEST(EngineHierTest, PartialStalenessProbesOnlyStale) {
  Rig rig(800, 6);
  auto engine = rig.Engine(ColrEngine::Mode::kHierCache);
  const Rect left = Rect::FromCorners(0, 0, 50, 100);
  const Rect full = Rect::FromCorners(0, 0, 100, 100);
  engine->Execute(MakeQuery(left));
  QueryResult result = engine->Execute(MakeQuery(full));
  const int total = rig.tree->CountSensorsInRegion(full);
  const int cached = rig.tree->CountSensorsInRegion(left);
  // Only the un-cached right half should be probed.
  EXPECT_EQ(result.stats.sensors_probed, total - cached);
  EXPECT_EQ(result.Total().count, total);
}

TEST(EngineHierTest, StalenessWindowGovernsCacheUse) {
  Rig rig(300, 7);
  auto engine = rig.Engine(ColrEngine::Mode::kHierCache);
  const Rect region = Rect::FromCorners(0, 0, 100, 100);
  engine->Execute(MakeQuery(region));
  // Readings expire at +5 min. At +6 min:
  rig.clock.AdvanceMs(6 * kMin);
  // Demanding data valid within the last 30s: cache unusable.
  QueryResult strict = engine->Execute(MakeQuery(region, 0, kMin / 2));
  EXPECT_EQ(strict.stats.cache_readings_used +
                strict.stats.cached_agg_readings,
            0);
  EXPECT_EQ(strict.stats.sensors_probed,
            rig.tree->CountSensorsInRegion(region));
  // (The strict query re-collected everything, refilling the cache;
  // verify the relaxed semantics on a fresh engine state instead.)
  rig.clock.AdvanceMs(6 * kMin);
  QueryResult relaxed = engine->Execute(MakeQuery(region, 0, 3 * kMin));
  EXPECT_EQ(relaxed.stats.sensors_probed, 0)
      << "readings valid within the 3-minute window must be served";
}

// ---------------------------------------------------------------------------
// Flat cache mode.
// ---------------------------------------------------------------------------

TEST(EngineFlatTest, MatchesExactCountAndCaches) {
  Rig rig(600, 8);
  auto engine = rig.Engine(ColrEngine::Mode::kFlatCache);
  const Rect region = Rect::FromCorners(30, 30, 70, 70);
  const int in_region = rig.tree->CountSensorsInRegion(region);
  QueryResult first = engine->Execute(MakeQuery(region));
  EXPECT_EQ(first.stats.sensors_probed, in_region);
  EXPECT_EQ(first.Total().count, in_region);
  QueryResult second = engine->Execute(MakeQuery(region));
  EXPECT_EQ(second.stats.sensors_probed, 0);
  EXPECT_EQ(second.stats.cache_readings_used, in_region);
  EXPECT_EQ(second.Total().count, in_region);
}

TEST(EngineFlatTest, SingleGroupResult) {
  Rig rig(200, 9);
  auto engine = rig.Engine(ColrEngine::Mode::kFlatCache);
  QueryResult r = engine->Execute(MakeQuery(Rect::FromCorners(0, 0, 50, 50)));
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].node_id, -1);
}

// ---------------------------------------------------------------------------
// Full COLR mode.
// ---------------------------------------------------------------------------

TEST(EngineColrTest, SamplingBoundsProbes) {
  Rig rig(3000, 10);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  const Rect region = Rect::FromCorners(0, 0, 100, 100);
  QueryResult r = engine->Execute(MakeQuery(region, /*sample=*/50));
  EXPECT_LT(r.stats.sensors_probed, 200);
  EXPECT_GT(r.stats.result_size, 10);
  // Exact mode for comparison would probe all 3000.
}

TEST(EngineColrTest, GroupsAtClusterLevel) {
  Rig rig(2000, 11);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  Query q = MakeQuery(Rect::FromCorners(0, 0, 100, 100), 80);
  q.cluster_level = 1;
  QueryResult r = engine->Execute(q);
  for (const GroupResult& g : r.groups) {
    EXPECT_LE(rig.tree->node(g.node_id).level, 1);
    EXPECT_GT(g.weight, 0);
  }
  // Finer clustering yields at least as many groups.
  q.cluster_level = 3;
  QueryResult fine = engine->Execute(q);
  EXPECT_GE(fine.groups.size(), r.groups.size());
}

TEST(EngineColrTest, CollectedReadingsPopulateCache) {
  Rig rig(1500, 12);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  const Rect region = Rect::FromCorners(10, 10, 60, 60);
  QueryResult first = engine->Execute(MakeQuery(region, 60));
  EXPECT_GT(first.stats.sensors_probed, 0);
  EXPECT_EQ(rig.tree->CachedReadingCount(), first.collected.size());
  // Re-issue: cache supplies most of the sample.
  QueryResult second = engine->Execute(MakeQuery(region, 60));
  EXPECT_LT(second.stats.sensors_probed, first.stats.sensors_probed);
  EXPECT_GT(second.stats.cache_readings_used +
                second.stats.cached_agg_readings,
            0);
}

TEST(EngineColrTest, FallsBackToRangeWithoutSampleSize) {
  Rig rig(400, 13);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  const Rect region = Rect::FromCorners(0, 0, 100, 100);
  QueryResult r = engine->Execute(MakeQuery(region, /*sample=*/0));
  EXPECT_EQ(r.Total().count, rig.tree->CountSensorsInRegion(region));
}

TEST(EngineColrTest, SampleAverageApproximatesTruth) {
  Rig rig(4000, 14);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  // Value = x coordinate; region [0,100]^2 => true mean ~50.
  Query q = MakeQuery(Rect::FromCorners(0, 0, 100, 100), 200);
  q.agg = AggregateKind::kAvg;
  QueryResult r = engine->Execute(q);
  EXPECT_NEAR(r.Total().Value(AggregateKind::kAvg), 50.0, 6.0);
}

TEST(EngineColrTest, TerminalRecordsFilled) {
  Rig rig(1000, 15);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  QueryResult r =
      engine->Execute(MakeQuery(Rect::FromCorners(0, 0, 100, 100), 40));
  ASSERT_FALSE(r.stats.terminals.empty());
  for (const TerminalRecord& t : r.stats.terminals) {
    EXPECT_GE(t.node_id, 0);
    EXPECT_GE(t.target, 0.0);
    EXPECT_GE(t.probes_attempted, t.probes_succeeded);
  }
}

TEST(EngineColrTest, RegionCountFilledWhenRequested) {
  Rig rig(500, 16);
  ColrEngine::Options opts;
  opts.mode = ColrEngine::Mode::kColr;
  opts.fill_region_count = true;
  ColrEngine engine(rig.tree.get(), rig.network.get(), opts);
  const Rect region = Rect::FromCorners(25, 25, 75, 75);
  QueryResult r = engine.Execute(MakeQuery(region, 30));
  EXPECT_EQ(r.stats.region_sensor_count,
            rig.tree->CountSensorsInRegion(region));
}

TEST(EngineColrTest, PolygonRegionRefinesResults) {
  Rig rig(2000, 17);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  // Triangle inside [0,100]^2.
  Query q;
  q.region = QueryRegion::FromPolygon(
      Polygon({{0, 0}, {100, 0}, {50, 100}}));
  q.sample_size = 100;
  q.staleness_ms = 5 * kMin;
  QueryResult r = engine->Execute(q);
  for (const Reading& reading : r.collected) {
    EXPECT_TRUE(
        q.region.Contains(rig.tree->sensor(reading.sensor).location));
  }
}

TEST(EngineColrTest, CumulativeStatsAccumulate) {
  Rig rig(800, 18);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  engine->Execute(MakeQuery(Rect::FromCorners(0, 0, 50, 50), 20));
  engine->Execute(MakeQuery(Rect::FromCorners(50, 50, 100, 100), 20));
  EXPECT_GT(engine->cumulative().sensors_probed, 0);
  EXPECT_GT(engine->cumulative().nodes_traversed, 0);
  engine->ResetCumulative();
  EXPECT_EQ(engine->cumulative().sensors_probed, 0);
}

// ---------------------------------------------------------------------------
// Per-group value distributions (§I "distribution of waiting times").
// ---------------------------------------------------------------------------

TEST(EngineHistogramTest, HierHistogramMatchesExactDistribution) {
  Rig rig(600, 30);
  auto engine = rig.Engine(ColrEngine::Mode::kHierCache);
  Query q = MakeQuery(Rect::FromCorners(0, 0, 100, 100));
  q.histogram_buckets = 4;
  q.histogram_lo = 0.0;
  q.histogram_hi = 100.0;  // value = x coordinate in [0, 100]
  QueryResult r = engine->Execute(q);
  // Sum of all histograms equals the exact result size, and each
  // reading landed in the bucket its value dictates.
  int64_t total = 0;
  std::vector<int64_t> combined(4, 0);
  for (const GroupResult& g : r.groups) {
    if (g.histogram.empty()) continue;
    ASSERT_EQ(g.histogram.size(), 4u);
    for (int b = 0; b < 4; ++b) {
      total += g.histogram[b];
      combined[b] += g.histogram[b];
    }
  }
  EXPECT_EQ(total, rig.tree->CountSensorsInRegion(q.region.bbox));
  // Uniform x over [0,100]: each quarter holds ~150 of 600.
  for (int b = 0; b < 4; ++b) {
    EXPECT_NEAR(combined[b], 150, 60) << "bucket " << b;
  }
}

TEST(EngineHistogramTest, SampledHistogramCoversSample) {
  Rig rig(2000, 31);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  Query q = MakeQuery(Rect::FromCorners(0, 0, 100, 100), /*sample=*/80);
  q.histogram_buckets = 5;
  q.histogram_hi = 100.0;
  QueryResult r = engine->Execute(q);
  int64_t histogrammed = 0;
  for (const GroupResult& g : r.groups) {
    for (int c : g.histogram) histogrammed += c;
  }
  // Every probed reading is histogrammed (cached aggregates may add to
  // counts without raw values; none are cached on the first query).
  EXPECT_EQ(histogrammed,
            static_cast<int64_t>(r.collected.size()));
  EXPECT_GT(histogrammed, 40);
}

TEST(EngineHistogramTest, DisabledByDefault) {
  Rig rig(200, 32);
  auto engine = rig.Engine(ColrEngine::Mode::kHierCache);
  QueryResult r = engine->Execute(MakeQuery(Rect::FromCorners(0, 0, 50, 50)));
  for (const GroupResult& g : r.groups) {
    EXPECT_TRUE(g.histogram.empty());
  }
}

// ---------------------------------------------------------------------------
// Probe-batch availability accounting
// ---------------------------------------------------------------------------

// Regression: a batch may legitimately contain the same sensor id more
// than once (the network probes each occurrence independently). The
// accounting must record one outcome per occurrence; the old
// first-match scan recorded every repeat of an available sensor as a
// spurious failure and dragged its EWMA estimate down.
TEST(EngineProbeAccountingTest, DuplicateIdsRecordPerOccurrence) {
  Rig rig(20, 30, /*availability=*/1.0);
  auto engine = [&] {
    ColrEngine::Options opts;
    opts.mode = ColrEngine::Mode::kColr;
    opts.track_availability = true;
    return std::make_unique<ColrEngine>(rig.tree.get(), rig.network.get(),
                                        opts);
  }();
  const AvailabilityTracker* tracker = engine->availability_tracker();
  ASSERT_NE(tracker, nullptr);

  // Fully available sensors: every occurrence succeeds, so every
  // recorded outcome must be a success.
  std::vector<Reading> readings =
      ColrEngineTestPeer::ProbeBatch(*engine, {0, 0, 0, 1});
  EXPECT_EQ(readings.size(), 4u);
  EXPECT_EQ(tracker->observations(), 4);
  EXPECT_DOUBLE_EQ(tracker->Estimate(0), 1.0);
  EXPECT_DOUBLE_EQ(tracker->Estimate(1), 1.0);
}

TEST(EngineProbeAccountingTest, DuplicateIdsOfDeadSensorAllFail) {
  // A dead sensor (availability 0) probed three times in one batch:
  // one failure per occurrence, and the estimate stays pinned at the
  // tracker's floor (it was seeded there from the metadata).
  Rig rig(20, 31, /*availability=*/0.0);
  auto engine = [&] {
    ColrEngine::Options opts;
    opts.mode = ColrEngine::Mode::kColr;
    opts.track_availability = true;
    return std::make_unique<ColrEngine>(rig.tree.get(), rig.network.get(),
                                        opts);
  }();
  const AvailabilityTracker* tracker = engine->availability_tracker();
  ASSERT_NE(tracker, nullptr);

  std::vector<Reading> readings =
      ColrEngineTestPeer::ProbeBatch(*engine, {2, 2, 2});
  EXPECT_TRUE(readings.empty());
  EXPECT_EQ(tracker->observations(), 3);
  EXPECT_LE(tracker->Estimate(2), AvailabilityTracker::Options().floor);
}

// Every query issues at most one probe round: an exact query's leaves
// (kHierCache, kRTree) and a sampled query's terminals (kColr) all go
// out in one network batch, and the query's collection latency is that
// batch's latency. With a fixed 80 ms round trip and a 400 ms timeout,
// a batch costs 80 ms when every probe succeeds and 400 ms when any
// fails — never a sum over leaves or terminals.
TEST(EngineProbeAccountingTest, EachQueryIssuesOneProbeRound) {
  SensorNetwork::Options net;
  net.probe_latency_base_ms = 80;
  net.probe_latency_jitter_ms = 0;
  net.probe_timeout_ms = 400;
  Rig rig(600, 35, /*availability=*/0.9, /*capacity=*/0, net);
  const auto run = [&](ColrEngine& engine, const Query& q) {
    const int64_t before = rig.network->counters().batches.load();
    QueryResult r = engine.Execute(q);
    const int64_t batches = rig.network->counters().batches.load() - before;
    if (r.stats.sensors_probed == 0) {
      EXPECT_EQ(batches, 0);
      EXPECT_EQ(r.stats.collection_latency_ms, 0);
    } else {
      EXPECT_EQ(batches, 1);
      EXPECT_EQ(r.stats.collection_latency_ms,
                r.stats.probe_successes < r.stats.sensors_probed ? 400 : 80);
    }
    return r;
  };
  const Rect region = Rect::FromCorners(10, 10, 90, 90);

  // A sampled query on the cold cache probes under several terminals,
  // still in one batch.
  auto colr = rig.Engine(ColrEngine::Mode::kColr);
  const QueryResult sampled = run(*colr, MakeQuery(region, 60));
  int probing_terminals = 0;
  for (const TerminalRecord& t : sampled.stats.terminals) {
    probing_terminals += t.probes_attempted > 0;
  }
  EXPECT_GE(probing_terminals, 2);

  // Exact queries probe far more sensors than one leaf (capacity 8)
  // holds; the kHierCache repeat is served mostly from its cache.
  auto hier = rig.Engine(ColrEngine::Mode::kHierCache);
  EXPECT_GT(run(*hier, MakeQuery(region)).stats.sensors_probed, 8 * 4);
  run(*hier, MakeQuery(region));
  auto rtree = rig.Engine(ColrEngine::Mode::kRTree);
  EXPECT_GT(run(*rtree, MakeQuery(region)).stats.sensors_probed, 8 * 4);
}

// Regression (silent skew clamp): processing_ms used to be
// max(0, elapsed - sim_wall) with the negative case — an accounting
// bug by construction, since elapsed covers every timed interval —
// swallowed. The skew is now surfaced in processing_skew_ms.
TEST(EngineProbeAccountingTest, NegativeProcessingSkewIsSurfaced) {
  ColrEngineTestPeer::Accounting acct;
  acct.sim_wall_ms = 5.0;

  QueryStats healthy;
  ColrEngineTestPeer::FinishProbeStats(acct, /*elapsed_ms=*/8.0, &healthy);
  EXPECT_DOUBLE_EQ(healthy.processing_ms, 3.0);
  EXPECT_DOUBLE_EQ(healthy.processing_skew_ms, 0.0);

  QueryStats skewed;
  ColrEngineTestPeer::FinishProbeStats(acct, /*elapsed_ms=*/3.0, &skewed);
  EXPECT_DOUBLE_EQ(skewed.processing_ms, 0.0);
  EXPECT_DOUBLE_EQ(skewed.processing_skew_ms, 2.0);
}

// The real probe path never produces skew: the same stopwatch that
// feeds elapsed_ms brackets every sim_wall interval. A sequential
// query mix must keep the cumulative skew counter at exactly zero —
// if this ever fires, some path started double-counting network wall
// time and the clamp above would have been hiding it.
TEST(EngineProbeAccountingTest, QueryMixProducesNoProcessingSkew) {
  Rig rig(400, 34, /*availability=*/0.9, /*capacity=*/200);
  auto engine = rig.Engine(ColrEngine::Mode::kColr);
  for (int i = 0; i < 40; ++i) {
    const double lo = 5.0 * (i % 8);
    const Rect region = Rect::FromCorners(lo, lo, lo + 55.0, lo + 55.0);
    QueryResult r = engine->Execute(
        MakeQuery(region, /*sample_size=*/(i % 3 == 0) ? 0 : 25));
    EXPECT_DOUBLE_EQ(r.stats.processing_skew_ms, 0.0);
  }
  EXPECT_DOUBLE_EQ(engine->cumulative().processing_skew_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Query-wide probe dedup (the ≤1-probe contract inside one query).
// ---------------------------------------------------------------------------

// Regression (double probe across overlapping groups): ExecuteRange
// builds to_probe per visited group; a sensor offered by two groups
// must be probed — and counted — once. The fixture drives the guard
// directly with two overlapping groups' sensor lists, exactly the
// call pattern of the leaf loop.
TEST(EngineProbeDedupTest, OverlappingGroupsProbeEachSensorOnce) {
  ProbeDeduper dedup;
  std::vector<SensorId> probed;
  for (SensorId sid : {1, 2, 3}) {
    if (dedup.Admit(sid)) probed.push_back(sid);
  }
  // Second group overlaps the first on sensor 3.
  for (SensorId sid : {3, 4, 5}) {
    if (dedup.Admit(sid)) probed.push_back(sid);
  }
  EXPECT_EQ(probed, (std::vector<SensorId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(dedup.duplicates_dropped(), 1);

  // A sensor already served from a group's cache slice is sealed the
  // same way: a later group cannot re-probe it.
  dedup.MarkServed(9);
  EXPECT_FALSE(dedup.Admit(9));
  EXPECT_EQ(dedup.duplicates_dropped(), 2);
}

// End to end: a range query over leaves with overlapping MBRs (uniform
// sensors at leaf capacity 8 overlap heavily) sends each in-region
// sensor to the network at most once, and sensors_probed matches the
// exact in-region count — no double counting.
TEST(EngineProbeDedupTest, RangeQueryProbesEachSensorAtMostOnce) {
  Rig rig(600, 33, /*availability=*/1.0);
  auto engine = rig.Engine(ColrEngine::Mode::kRTree);
  const Rect region = Rect::FromCorners(10, 10, 90, 90);
  const int in_region = rig.tree->CountSensorsInRegion(region);
  ASSERT_GT(in_region, 100);

  QueryResult r = engine->Execute(MakeQuery(region));
  EXPECT_EQ(r.stats.sensors_probed, in_region);
  EXPECT_EQ(r.stats.result_size, in_region);
  for (SensorId id = 0; id < 600; ++id) {
    EXPECT_LE(rig.network->probe_count(id), 1u) << "sensor " << id;
  }
}

// ---------------------------------------------------------------------------
// Group emission for unreachable leaves.
// ---------------------------------------------------------------------------

// A leaf whose sensors are all unavailable (and nothing cached) still
// yields its group: the group's node_id, bbox and weight tell the
// client the cluster exists even though no reading contributed — the
// same contract as ExecuteColr, which emits every sampled terminal's
// group unconditionally. Pins the ExecuteRange emission condition
// (an always-true predicate used to hide whether empty groups were
// intended; they are).
TEST(EngineGroupEmissionTest, AllSensorsUnavailableLeafStillEmitsGroup) {
  Rig rig(200, 33, /*availability=*/0.0);
  const Rect region = Rect::FromCorners(0, 0, 100, 100);
  for (ColrEngine::Mode mode :
       {ColrEngine::Mode::kRTree, ColrEngine::Mode::kHierCache}) {
    auto engine = rig.Engine(mode);
    QueryResult result = engine->Execute(MakeQuery(region));
    EXPECT_EQ(result.stats.probe_successes, 0);
    EXPECT_EQ(result.Total().count, 0);
    ASSERT_FALSE(result.groups.empty());
    int total_weight = 0;
    for (const GroupResult& g : result.groups) {
      EXPECT_TRUE(g.agg.empty());
      EXPECT_GE(g.node_id, 0);
      EXPECT_GT(g.weight, 0);
      total_weight += g.weight;
    }
    // Every sensor in the region is accounted for by some emitted
    // group even though none produced a reading.
    EXPECT_EQ(total_weight, rig.tree->CountSensorsInRegion(region));
  }
}

// ---------------------------------------------------------------------------
// Cross-mode comparisons (the paper's qualitative claims).
// ---------------------------------------------------------------------------

TEST(EngineComparisonTest, ColrProbesFarFewerThanBaselines) {
  // Replay a small workload with spatio-temporal locality through all
  // four configurations; COLR-Tree must probe far fewer sensors.
  LiveLocalOptions wopts;
  wopts.num_sensors = 3000;
  wopts.num_queries = 120;
  wopts.num_cities = 20;
  wopts.extent = Rect::FromCorners(0, 0, 100, 100);
  wopts.city_sigma_min = 1.0;
  wopts.city_sigma_max = 8.0;
  wopts.duration_ms = 10 * kMin;
  LiveLocalWorkload w = GenerateLiveLocal(wopts);

  auto run_mode = [&](ColrEngine::Mode mode) {
    SimClock clock;
    SensorNetwork network(w.sensors, &clock);
    ColrTree::Options topts;
    topts.cluster.fanout = 4;
    topts.cluster.leaf_capacity = 16;
    topts.t_max_ms = wopts.expiry_max_ms;
    topts.slot_delta_ms = wopts.expiry_max_ms / 4;
    topts.cache_capacity = w.sensors.size() / 4;
    ColrTree tree(w.sensors, topts);
    ColrEngine::Options eopts;
    eopts.mode = mode;
    ColrEngine engine(&tree, &network, eopts);
    for (const auto& rec : w.queries) {
      clock.SetMs(rec.at);
      Query q = MakeQuery(rec.region, mode == ColrEngine::Mode::kColr
                                          ? 30
                                          : 0);
      engine.Execute(q);
    }
    return engine.cumulative();
  };

  const QueryStats rtree = run_mode(ColrEngine::Mode::kRTree);
  const QueryStats hier = run_mode(ColrEngine::Mode::kHierCache);
  const QueryStats colr = run_mode(ColrEngine::Mode::kColr);

  EXPECT_LT(hier.sensors_probed, rtree.sensors_probed);
  EXPECT_LT(colr.sensors_probed, hier.sensors_probed / 2);
  EXPECT_GT(colr.cached_nodes_accessed + hier.cached_nodes_accessed, 0);
}

}  // namespace
}  // namespace colr
