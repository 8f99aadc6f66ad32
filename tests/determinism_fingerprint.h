#ifndef COLR_TESTS_DETERMINISM_FINGERPRINT_H_
#define COLR_TESTS_DETERMINISM_FINGERPRINT_H_

// Bit-exact fingerprint of a fixed single-threaded query replay. The
// golden value (kSeedFingerprint in concurrency_test.cc) was captured
// from the pre-concurrency seed tree; the regression test asserts the
// refactored engine still produces it, i.e. the concurrency refactor
// changed architecture, not semantics: same RNG streams, same probe
// decisions, same float accumulation order, same group structure.

#include <cstdint>
#include <cstring>

#include "common/clock.h"
#include "core/engine.h"
#include "core/tree.h"
#include "sensor/network.h"
#include "workload/live_local.h"

namespace colr::testing {

class Fingerprint {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001B3ull;  // FNV-1a prime, 64-bit
  }
  void MixDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;  // FNV offset basis
};

namespace internal {

/// Shared replay behind the two seed-behaviour fingerprints: a fixed
/// Live-Local workload through one engine in kColr mode (alternating
/// sampled and exact queries). `mix_query` folds each query's groups
/// into the fingerprint; everything else (per-query stats, cumulative
/// instrumentation, network counters) is mixed identically by both
/// variants.
template <typename MixGroupsFn>
inline uint64_t ReplaySeedBehaviour(int writer_shard_level,
                                    MixGroupsFn&& mix_groups) {
  LiveLocalOptions wopts;
  wopts.num_sensors = 2500;
  wopts.num_queries = 160;
  wopts.num_cities = 16;
  wopts.extent = Rect::FromCorners(0, 0, 100, 100);
  wopts.city_sigma_min = 1.0;
  wopts.city_sigma_max = 8.0;
  wopts.duration_ms = 20 * kMsPerMinute;
  wopts.seed = 0xD5EEDull;
  const LiveLocalWorkload w = GenerateLiveLocal(wopts);

  SimClock clock;
  SensorNetwork network(w.sensors, &clock);
  network.set_value_fn(MakeRestaurantWaitingTimeFn());

  ColrTree::Options topts;
  topts.cluster.fanout = 4;
  topts.cluster.leaf_capacity = 16;
  topts.t_max_ms = wopts.expiry_max_ms;
  topts.slot_delta_ms = wopts.expiry_max_ms / 4;
  topts.cache_capacity = w.sensors.size() / 4;
  if (writer_shard_level >= 0) {
    topts.writer_shard_level = writer_shard_level;
  }
  ColrTree tree(w.sensors, topts);

  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  eopts.track_availability = true;
  ColrEngine engine(&tree, &network, eopts);

  Fingerprint fp;
  int i = 0;
  for (const auto& rec : w.queries) {
    clock.SetMs(rec.at);
    Query q;
    q.region = QueryRegion::FromRect(rec.region);
    q.staleness_ms = 5 * kMsPerMinute;
    q.sample_size = (i % 3 == 0) ? 0 : 40;  // mix exact and sampled
    q.cluster_level = 2;
    ++i;

    const QueryResult result = engine.Execute(q);
    mix_groups(fp, tree, result);
    fp.Mix(static_cast<uint64_t>(result.stats.sensors_probed));
    fp.Mix(static_cast<uint64_t>(result.stats.probe_successes));
    fp.Mix(static_cast<uint64_t>(result.stats.cache_readings_used));
    fp.Mix(static_cast<uint64_t>(result.stats.cached_agg_readings));
    fp.Mix(static_cast<uint64_t>(result.stats.nodes_traversed));
  }

  const QueryStats cum = engine.cumulative();
  fp.Mix(static_cast<uint64_t>(cum.sensors_probed));
  fp.Mix(static_cast<uint64_t>(cum.probe_successes));
  fp.Mix(static_cast<uint64_t>(cum.nodes_traversed));
  fp.Mix(static_cast<uint64_t>(cum.cache_readings_used));
  fp.Mix(static_cast<uint64_t>(network.counters().probes));
  fp.Mix(static_cast<uint64_t>(network.counters().successes));
  fp.Mix(static_cast<uint64_t>(tree.CachedReadingCount()));
  return fp.value();
}

}  // namespace internal

/// Replays the fixed Live-Local workload and fingerprints every result
/// plus the cumulative instrumentation. Group results are keyed by the
/// raw node id, so this value is specific to one node numbering; the
/// golden constant must be re-captured (with justification) whenever
/// the tree's node-id assignment changes. `writer_shard_level` < 0
/// keeps the tree's default sharding.
inline uint64_t SeedBehaviourFingerprint(int writer_shard_level = -1) {
  return internal::ReplaySeedBehaviour(
      writer_shard_level,
      [](Fingerprint& fp, const ColrTree& /*tree*/,
         const QueryResult& result) {
        for (const GroupResult& g : result.groups) {
          fp.Mix(static_cast<uint64_t>(g.node_id));
          fp.Mix(static_cast<uint64_t>(g.agg.count));
          fp.MixDouble(g.agg.sum);
          if (g.agg.count > 0) {
            fp.MixDouble(g.agg.min);
            fp.MixDouble(g.agg.max);
          }
        }
      });
}

/// Node-relabeling-invariant variant of SeedBehaviourFingerprint: each
/// group is keyed by the structural identity of its node (level and
/// the sensor-order slice it covers, both preserved by any relabeling
/// that keeps the cluster hierarchy intact) instead of the raw node
/// id, and the per-group hashes are folded with a commutative
/// wraparound sum so group enumeration order does not matter either.
/// A layout refactor that renumbers nodes but preserves behaviour
/// leaves this value unchanged while the raw fingerprint moves.
inline uint64_t SeedBehaviourStructuralFingerprint(
    int writer_shard_level = -1) {
  return internal::ReplaySeedBehaviour(
      writer_shard_level,
      [](Fingerprint& fp, const ColrTree& tree, const QueryResult& result) {
        uint64_t combined = 0;
        for (const GroupResult& g : result.groups) {
          Fingerprint gf;
          if (g.node_id >= 0) {
            const auto& n = tree.node(g.node_id);
            gf.Mix(static_cast<uint64_t>(n.level));
            gf.Mix(static_cast<uint64_t>(n.item_begin));
            gf.Mix(static_cast<uint64_t>(n.item_end));
          } else {
            gf.Mix(static_cast<uint64_t>(g.node_id));
          }
          gf.Mix(static_cast<uint64_t>(g.agg.count));
          gf.MixDouble(g.agg.sum);
          if (g.agg.count > 0) {
            gf.MixDouble(g.agg.min);
            gf.MixDouble(g.agg.max);
          }
          combined += gf.value();  // commutative: order-invariant
        }
        fp.Mix(static_cast<uint64_t>(result.groups.size()));
        fp.Mix(combined);
      });
}

/// Fingerprint of a quiesced tree's cache, built only from values
/// that are deterministic regardless of how concurrent writers
/// interleaved: integer counts, the exact bits of each per-sensor
/// cached reading (each sensor's final reading is its last insert —
/// thread-order independent), node-aggregate counts and min/max
/// (order-free folds), and reading sums re-accumulated in canonical
/// sensor-id order. Node-aggregate *sums* are deliberately excluded:
/// they accumulate in thread arrival order, so their low bits vary
/// run to run. Use with cache_capacity = 0 — eviction order is
/// interleaving-dependent.
inline uint64_t QuiescentCacheFingerprint(const ColrTree& tree,
                                          size_t num_sensors, TimeMs now,
                                          TimeMs staleness) {
  Fingerprint fp;
  fp.Mix(tree.CachedReadingCount());
  double canonical_sum = 0.0;
  for (size_t i = 0; i < num_sensors; ++i) {
    const auto r = tree.CachedReading(static_cast<SensorId>(i));
    if (!r.has_value()) {
      fp.Mix(0);
      continue;
    }
    fp.Mix(1);
    fp.Mix(static_cast<uint64_t>(r->timestamp));
    fp.Mix(static_cast<uint64_t>(r->expiry));
    fp.MixDouble(r->value);
    canonical_sum += r->value;
  }
  fp.MixDouble(canonical_sum);
  const auto root = tree.LookupCache(tree.root(), now, staleness);
  fp.Mix(static_cast<uint64_t>(root.agg.count));
  if (root.agg.count > 0) {
    fp.MixDouble(root.agg.min);
    fp.MixDouble(root.agg.max);
  }
  // Mixed a second time: the recorded fingerprint values include this
  // term.
  fp.Mix(static_cast<uint64_t>(root.agg.count));
  return fp.value();
}

}  // namespace colr::testing

#endif  // COLR_TESTS_DETERMINISM_FINGERPRINT_H_
