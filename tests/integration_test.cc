// End-to-end integration tests: full portal replays through every
// engine configuration, cross-mode result consistency, determinism,
// and long-run cache-integrity under a realistic workload.

#include <map>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "workload/live_local.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

LiveLocalWorkload SmallWorkload(uint64_t seed, int sensors = 4000,
                                int queries = 200) {
  LiveLocalOptions opts;
  opts.num_sensors = sensors;
  opts.num_queries = queries;
  opts.num_cities = 25;
  opts.extent = Rect::FromCorners(0, 0, 100, 100);
  opts.city_sigma_min = 1.0;
  opts.city_sigma_max = 8.0;
  opts.duration_ms = 20 * kMin;
  opts.seed = seed;
  return GenerateLiveLocal(opts);
}

struct Portal {
  Portal(const LiveLocalWorkload& workload, ColrEngine::Mode mode,
         double availability_override = -1.0, size_t capacity = 0,
         uint64_t engine_seed = 0xC0FFEEu) {
    sensors = workload.sensors;
    if (availability_override >= 0) {
      for (auto& s : sensors) s.availability = availability_override;
    }
    network = std::make_unique<SensorNetwork>(sensors, &clock);
    ColrTree::Options topts;
    topts.cache_capacity = capacity;
    tree = std::make_unique<ColrTree>(sensors, topts);
    ColrEngine::Options eopts;
    eopts.mode = mode;
    eopts.seed = engine_seed;
    engine = std::make_unique<ColrEngine>(tree.get(), network.get(), eopts);
  }

  QueryResult Run(const LiveLocalWorkload::QueryRecord& rec,
                  int sample_size, TimeMs staleness = 5 * kMin) {
    clock.SetMs(rec.at);
    Query q;
    q.region = QueryRegion::FromRect(rec.region);
    q.staleness_ms = staleness;
    q.sample_size = sample_size;
    q.cluster_level = 2;
    return engine->Execute(q);
  }

  SimClock clock;
  std::vector<SensorInfo> sensors;
  std::unique_ptr<SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<ColrEngine> engine;
};

// With full availability and no sampling, every configuration must
// return the exact same total count for every query of the trace.
TEST(IntegrationTest, ExactModesAgreeOnCounts) {
  LiveLocalWorkload w = SmallWorkload(1);
  Portal rtree(w, ColrEngine::Mode::kRTree, 1.0);
  Portal flat(w, ColrEngine::Mode::kFlatCache, 1.0);
  Portal hier(w, ColrEngine::Mode::kHierCache, 1.0);

  for (const auto& rec : w.queries) {
    const int64_t a = rtree.Run(rec, 0).Total().count;
    const int64_t b = flat.Run(rec, 0).Total().count;
    const int64_t c = hier.Run(rec, 0).Total().count;
    const int exact = rtree.tree->CountSensorsInRegion(rec.region);
    ASSERT_EQ(a, exact);
    ASSERT_EQ(b, exact);
    ASSERT_EQ(c, exact);
  }
}

// The exact modes must also agree on SUM (values, not just counts),
// even though hier serves much of it from cached aggregates.
TEST(IntegrationTest, HierAggregatesMatchFreshCollection) {
  LiveLocalWorkload w = SmallWorkload(2);
  Portal rtree(w, ColrEngine::Mode::kRTree, 1.0);
  Portal hier(w, ColrEngine::Mode::kHierCache, 1.0);
  // Deterministic value = f(sensor id) only, so cached and fresh
  // readings of a sensor always carry the same value.
  auto value_fn = [](const SensorInfo& s, TimeMs) {
    return static_cast<double>(s.id % 97) + 0.5;
  };
  rtree.network->set_value_fn(value_fn);
  hier.network->set_value_fn(value_fn);

  for (const auto& rec : w.queries) {
    const Aggregate a = rtree.Run(rec, 0).Total();
    const Aggregate b = hier.Run(rec, 0).Total();
    ASSERT_EQ(a.count, b.count);
    ASSERT_NEAR(a.sum, b.sum, 1e-6);
    if (a.count > 0) {
      ASSERT_DOUBLE_EQ(a.min, b.min);
      ASSERT_DOUBLE_EQ(a.max, b.max);
    }
  }
}

// Same seed, same trace => bit-identical stats, reading counts and
// probe totals (full determinism of the simulation stack).
TEST(IntegrationTest, DeterministicReplay) {
  LiveLocalWorkload w = SmallWorkload(3);
  auto run = [&w]() {
    Portal portal(w, ColrEngine::Mode::kColr, -1.0,
                  w.sensors.size() / 4, /*engine_seed=*/42);
    std::vector<int64_t> probes;
    for (const auto& rec : w.queries) {
      probes.push_back(portal.Run(rec, 30).stats.sensors_probed);
    }
    return probes;
  };
  EXPECT_EQ(run(), run());
}

// The headline ordering over a realistic trace: colr probes a small
// fraction of hier's probes, which probe no more than rtree.
TEST(IntegrationTest, ProbeOrderingAcrossModes) {
  LiveLocalWorkload w = SmallWorkload(4);
  Portal rtree(w, ColrEngine::Mode::kRTree);
  Portal hier(w, ColrEngine::Mode::kHierCache, -1.0,
              w.sensors.size() / 4);
  Portal colr(w, ColrEngine::Mode::kColr, -1.0, w.sensors.size() / 4);
  for (const auto& rec : w.queries) {
    rtree.Run(rec, 0);
    hier.Run(rec, 0);
    colr.Run(rec, 30);
  }
  const int64_t p_rtree = rtree.engine->cumulative().sensors_probed;
  const int64_t p_hier = hier.engine->cumulative().sensors_probed;
  const int64_t p_colr = colr.engine->cumulative().sensors_probed;
  EXPECT_LE(p_hier, p_rtree);
  EXPECT_LT(p_colr * 5, p_hier);
}

// Cache integrity after a full replay with evictions, rolls and
// replacements: per-node aggregates still mirror the raw store.
TEST(IntegrationTest, CacheConsistencyAfterLongReplay) {
  LiveLocalWorkload w = SmallWorkload(5, 1500, 300);
  Portal colr(w, ColrEngine::Mode::kColr, -1.0, 300);
  for (const auto& rec : w.queries) {
    colr.Run(rec, 25);
  }
  EXPECT_TRUE(colr.tree->CheckCacheConsistency().ok());
  EXPECT_LE(colr.tree->CachedReadingCount(), 300u);
}

// Sampled estimates scale to the exact answer: estimate count by
// (group weight x sampled fraction) and compare against the exact
// region count.
TEST(IntegrationTest, SampleScalesToExactCount) {
  LiveLocalWorkload w = SmallWorkload(6);
  Portal colr(w, ColrEngine::Mode::kColr, 1.0);
  RunningStat rel_err;
  for (const auto& rec : w.queries) {
    const int exact = colr.tree->CountSensorsInRegion(rec.region);
    if (exact < 200) continue;  // estimation noise dominates below
    QueryResult r = colr.Run(rec, 100);
    // Horvitz-Thompson style estimate: every in-region sensor was
    // sampled with probability ~result_size/exact, so the sampled
    // count scaled by the sampling fraction estimates the total. Here
    // we exercise the per-group weights instead: sum of group weights
    // covering the sampled groups approximates the region count.
    if (r.stats.result_size == 0) continue;
    double weight_covered = 0;
    for (const GroupResult& g : r.groups) weight_covered += g.weight;
    // Groups at cluster level cover at least the sampled sensors'
    // clusters; their total weight should be within a factor of ~3 of
    // the exact count for viewport-style queries.
    rel_err.Add(weight_covered / exact);
  }
  ASSERT_GT(rel_err.count(), 10);
  EXPECT_GT(rel_err.mean(), 0.5);
  EXPECT_LT(rel_err.mean(), 4.0);
}

// Collection latency reflects one parallel round per query: every
// sensor a query probes goes out in a single network batch, whose
// latency is the *max* (not the sum) of its parallel probes — so
// across the workload the aggregate stays far below the serial
// per-probe cost.
TEST(IntegrationTest, CollectionLatencyIsParallel) {
  LiveLocalWorkload w = SmallWorkload(7);
  Portal rtree(w, ColrEngine::Mode::kRTree, 1.0);
  int64_t total_probes = 0;
  TimeMs total_latency = 0;
  for (const auto& rec : w.queries) {
    const int64_t batches_before = rtree.network->counters().batches.load();
    QueryResult r = rtree.Run(rec, 0);
    const int64_t batches =
        rtree.network->counters().batches.load() - batches_before;
    total_probes += r.stats.sensors_probed;
    total_latency += r.stats.collection_latency_ms;
    // A query that probes at all waits out at least one full RTT, and
    // costs exactly one network batch however many leaves it spans.
    if (r.stats.sensors_probed > 0) {
      EXPECT_GE(r.stats.collection_latency_ms, 80);
      EXPECT_EQ(batches, 1);
    } else {
      EXPECT_EQ(batches, 0);
    }
  }
  ASSERT_GT(total_probes, 1000);
  // Serial collection would cost ~100ms (RTT base + jitter mean) per
  // probe; parallel batches must beat half of that comfortably.
  EXPECT_LT(total_latency, total_probes * 100 / 2);
}

}  // namespace
}  // namespace colr
