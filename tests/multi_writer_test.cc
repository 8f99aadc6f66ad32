// Multi-writer stress for the epoch/shard write protocol: concurrent
// InsertReading callers (per-shard writer locks), a roller taking the
// exclusive epoch (AdvanceTo), touch traffic feeding the LRF policy,
// and a capacity-constrained store so cross-shard eviction runs under
// load. These tests are the TSan face of the sharded write path — run
// them under COLR_SANITIZE=thread via scripts/check.sh. Quiescent
// state must be sequential-exact: every run ends in
// CheckCacheConsistency(), and exact engine queries running beside
// the writers must count every in-region sensor. The writer/roller
// loop itself lives in tests/concurrent_harness.h; failures print the
// COLR_STRESS_SEED to rerun with.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "concurrent_harness.h"
#include "core/engine.h"
#include "core/tree.h"
#include "gtest/gtest.h"
#include "sensor/network.h"

namespace colr {
namespace {

namespace ct = colr::testing;

constexpr TimeMs kMin = kMsPerMinute;

// N writer threads own disjoint sensor partitions and insert
// replacement-heavy rounds while one roller advances the window and
// the capacity constraint forces cross-shard evictions. At
// quiescence, every node's slot aggregates must equal a recompute
// from the raw cached readings.
TEST(MultiWriterTest, ConcurrentWritersRollerAndEvictionsStayConsistent) {
  const uint64_t seed = ct::StressSeed(0xC01A57E55ull);
  ct::SeedLogger log(seed);
  const auto sensors = ct::GridSensors(512, 4 * kMin);
  // Capacity at half the catalog: steady-state eviction pressure. The
  // harness writes one full round at t = 0 before the roller starts —
  // twice the capacity in readings that cannot expire yet — so
  // evictions are certain however far the roller then runs ahead.
  ColrTree tree(sensors, ct::StressTreeOptions(sensors.size() / 2));
  ASSERT_GE(tree.writer_shard_level(), 1) << "tree too shallow to shard";

  ct::WriterRollerOptions opts;
  opts.writers = 4;
  opts.rounds = 120;
  opts.step_ms = 20 * kMsPerSecond;  // a slot every 3 rounds
  opts.touch_every = 7;
  opts.seed = seed;
  const ct::WriterRollerOutcome run =
      ct::RunWriterRollerStress(tree, sensors, opts);

  EXPECT_EQ(run.inserts, static_cast<int64_t>(sensors.size()) * opts.rounds);
  EXPECT_GT(tree.maintenance().readings_evicted.load(), 0);
  EXPECT_LE(tree.CachedReadingCount(), sensors.size() / 2);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

// writer_shard_level = 0 degenerates to the serialized protocol (one
// shard: the root) — the baseline the writer-scaling bench compares
// against. It must behave identically, just without parallelism.
TEST(MultiWriterTest, SerializedShardLevelStaysConsistent) {
  const uint64_t seed = ct::StressSeed(0x5E41A112EDull);
  ct::SeedLogger log(seed);
  const auto sensors = ct::GridSensors(256, 4 * kMin);
  ColrTree tree(sensors, ct::StressTreeOptions(sensors.size() / 2,
                                               /*shard_level=*/0));
  EXPECT_EQ(tree.writer_shard_level(), 0);

  // Lockstep with a zero step: replacement-heavy rounds all at t = 0,
  // no rolls — pure write-lock contention on the single shard.
  ct::WriterRollerOptions opts;
  opts.writers = 3;
  opts.rounds = 60;
  opts.step_ms = 0;
  opts.lockstep = true;
  opts.seed = seed;
  const ct::WriterRollerOutcome run =
      ct::RunWriterRollerStress(tree, sensors, opts);

  EXPECT_EQ(run.inserts, static_cast<int64_t>(sensors.size()) * opts.rounds);
  EXPECT_LE(tree.CachedReadingCount(), sensors.size() / 2);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

// The epoch counter is the protocol's observable: every exclusive
// maintenance section (roll, audit) advances it, and concurrent
// shared holders never do.
TEST(MultiWriterTest, WriteEpochAdvancesPerExclusiveSection) {
  const auto sensors = ct::GridSensors(64, 4 * kMin);
  ColrTree tree(sensors, ct::StressTreeOptions(0));

  const uint64_t e0 = tree.write_epoch();
  tree.InsertReading(ct::StressReading(sensors, 0, 0, 1.0));  // shared only
  EXPECT_EQ(tree.write_epoch(), e0);

  tree.AdvanceTo(10 * kMin);  // rolls: takes the exclusive epoch
  const uint64_t e1 = tree.write_epoch();
  EXPECT_GT(e1, e0);

  tree.AdvanceTo(10 * kMin);  // no roll needed: no exclusive section
  EXPECT_EQ(tree.write_epoch(), e1);

  ASSERT_TRUE(tree.CheckCacheConsistency().ok());  // exclusive audit
  EXPECT_GT(tree.write_epoch(), e1);
}

// Exact kHierCache queries racing a writer that keeps the cache at
// capacity: replacements dip an internal node's count below its
// weight while they propagate, and evictions take readings out of it.
// Every answer must still account for every sensor in the region —
// each one either served from a cache or probed. A node whose
// fullness test and aggregate read come from two separate lookups
// can pass the test on one snapshot and answer from a later, shorter
// one, leaving the group a reading short with no probe issued.
TEST(MultiWriterTest, ExactQueriesAccountForEverySensorUnderEviction) {
  const uint64_t seed = ct::StressSeed(0x70A2CAC4Eull);
  ct::SeedLogger log(seed);
  const auto sensors = ct::GridSensors(1024, 4 * kMin);  // 33 x 33 grid
  ColrTree tree(sensors, ct::StressTreeOptions(sensors.size() / 2));
  SimClock clock;
  const TimeMs now = 10 * kMin;
  clock.SetMs(now);  // frozen: nothing expires and the window never rolls
  tree.AdvanceTo(now);
  SensorNetwork network(sensors, &clock);
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kHierCache;
  ColrEngine engine(&tree, &network, eopts);

  // Half-integer edges keep every grid point off the boundary.
  const Rect region = Rect::FromCorners(-0.5, -0.5, 20.5, 20.5);
  int64_t in_region = 0;
  for (const SensorInfo& s : sensors) in_region += region.Contains(s.location);
  ASSERT_EQ(in_region, 21 * 21);
  Query q;
  q.region = QueryRegion::FromRect(region);
  q.sample_size = 0;
  q.cluster_level = 1;

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 150;
  std::atomic<bool> done{false};
  std::atomic<int64_t> cache_served{0};
  // Per reader: short answers seen, and the first one spelled out.
  std::vector<int> shorts(kReaders, 0);
  std::vector<std::string> first_short(kReaders);
  std::thread writer([&] {
    // Cycles the whole catalog: in-region sensors are replaced,
    // out-of-region ones push the region's readings out by LRF.
    for (int64_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      const SensorId id = static_cast<SensorId>(i % sensors.size());
      tree.InsertReading(ct::StressReading(
          sensors, id, now, ct::StressValue(seed, id, static_cast<int>(i))));
    }
  });
  ct::RunThreads(kReaders, [&](int r) {
    for (int i = 0; i < kQueriesPerReader; ++i) {
      ExecutionContext ctx(engine.QuerySeed(
          static_cast<uint64_t>(r) * kQueriesPerReader + i));
      const QueryResult res = engine.Execute(q, ctx);
      int64_t readings = 0;
      for (const GroupResult& g : res.groups) readings += g.agg.count;
      // Probe requests (issued, joined, reused or shed) that brought
      // back no reading.
      const QueryStats& st = res.stats;
      const int64_t failed = st.sensors_probed + st.probes_coalesced +
                             st.probes_reused + st.probes_shed -
                             st.probe_successes;
      cache_served.fetch_add(st.cached_agg_readings,
                             std::memory_order_relaxed);
      if (readings + failed != in_region && shorts[r]++ == 0) {
        first_short[r] = std::to_string(readings) + " readings + " +
                         std::to_string(failed) + " failed probes != " +
                         std::to_string(in_region) + " sensors in region";
      }
    }
  });
  done.store(true, std::memory_order_release);
  writer.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(shorts[r], 0) << "reader " << r << " of " << kReaders
                            << " x " << kQueriesPerReader
                            << " queries; first: " << first_short[r];
  }
  // The race needs both sides: early-terminated internal nodes and a
  // cache held at capacity.
  EXPECT_GT(cache_served.load(), 0);
  EXPECT_GT(tree.maintenance().readings_evicted.load(), 0);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

}  // namespace
}  // namespace colr
