#ifndef COLR_CORE_QUERY_H_
#define COLR_CORE_QUERY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "core/aggregate.h"
#include "geo/geo.h"
#include "sensor/sensor.h"

namespace colr {

/// Spatial query region: a rectangle (the common viewport case) with
/// an optional polygon refinement (§III-B allows polygonal regions).
/// Tree navigation always uses the bounding box; the polygon, when
/// present, refines containment and per-sensor membership tests.
struct QueryRegion {
  Rect bbox;
  std::optional<Polygon> polygon;

  static QueryRegion FromRect(const Rect& r) { return {r, std::nullopt}; }
  static QueryRegion FromPolygon(Polygon p) {
    QueryRegion q;
    q.bbox = p.bounding_box();
    q.polygon = std::move(p);
    return q;
  }

  bool Contains(const Point& p) const {
    if (!bbox.Contains(p)) return false;
    return !polygon || polygon->Contains(p);
  }

  bool Contains(const Rect& r) const {
    if (!bbox.Contains(r)) return false;
    return !polygon || polygon->Contains(r);
  }

  bool Intersects(const Rect& r) const {
    if (!bbox.Intersects(r)) return false;
    return !polygon || polygon->Intersects(r);
  }
};

/// A SensorMap portal query (§III-B):
///
///   SELECT agg(*) FROM sensor S
///   WHERE S.location WITHIN <region>
///     AND S.time BETWEEN now()-staleness AND now()
///   CLUSTER <level>            -- result granularity (zoom level)
///   SAMPLESIZE <sample_size>   -- probe budget (0 = exact, probe all)
struct Query {
  QueryRegion region;
  /// Maximum acceptable staleness of readings.
  TimeMs staleness_ms = 5 * kMsPerMinute;
  /// Target sample size R; <= 0 disables sampling (collect from every
  /// sensor in the region).
  int sample_size = 0;
  /// Result granularity: one group per tree node at this level (the T
  /// threshold of Algorithm 1, derived from the map zoom level /
  /// CLUSTER clause). Negative = group at leaf level.
  int cluster_level = 2;
  AggregateKind agg = AggregateKind::kCount;
  /// Materialize the individual contributing readings (SELECT *):
  /// cache-served readings are copied into
  /// QueryResult::served_from_cache and internal-aggregate shortcuts
  /// that cannot yield raw readings are disabled.
  bool return_readings = false;
  /// > 0: fill GroupResult::histogram with this many buckets over
  /// [histogram_lo, histogram_hi]. Per-reading distributions require
  /// raw values, so aggregate-only shortcuts are disabled (as with
  /// return_readings).
  int histogram_buckets = 0;
  double histogram_lo = 0.0;
  double histogram_hi = 100.0;
};

/// One multi-resolution result group (a cluster of near-by sensors at
/// the requested zoom level, §III-B).
struct GroupResult {
  /// Tree node the group corresponds to (-1 for non-tree engines).
  int node_id = -1;
  Rect bbox;
  /// Aggregate over the readings contributing to this group (cached +
  /// freshly probed). With sampling this is the sample aggregate.
  Aggregate agg;
  /// Total sensors in the group (the group's weight) — lets clients
  /// scale sample counts into estimates.
  int weight = 0;
  /// Value distribution of the group's individual readings (the
  /// intro's "distribution of waiting times for each group"); filled
  /// only when Query::histogram_buckets > 0 and sized accordingly.
  /// Bucket i counts values in [lo + i*w, lo + (i+1)*w) over the
  /// query-wide range [histogram_lo, histogram_hi]; out-of-range
  /// values clamp to the edge buckets.
  std::vector<int> histogram;
};

/// Per-terminal sampling accounting, the input to Fig. 6's probe
/// discretization error.
struct TerminalRecord {
  int node_id = -1;
  /// Target share assigned to the terminal (before oversampling).
  double target = 0.0;
  int probes_attempted = 0;
  int probes_succeeded = 0;
  int64_t cached_used = 0;
};

/// Counters mirroring the paper's instrumentation: node traversals
/// (Fig. 3), cache accesses (Fig. 3 inset), sensor probes (Fig. 4/5),
/// processing and collection latency (Fig. 4).
struct QueryStats {
  int64_t nodes_traversed = 0;
  int64_t internal_nodes_traversed = 0;
  /// Nodes whose slot cache contributed to the answer.
  int64_t cached_nodes_accessed = 0;
  int64_t sensors_probed = 0;
  int64_t probe_successes = 0;
  /// Raw cached readings used (leaf hits).
  int64_t cache_readings_used = 0;
  /// Readings represented by cached aggregates at internal terminals.
  int64_t cached_agg_readings = 0;
  int64_t slots_merged = 0;
  /// Probe requests satisfied by joining another query's in-flight
  /// probe (cross-query single-flight; not counted in sensors_probed).
  int64_t probes_coalesced = 0;
  /// Probe requests served from a sensor's last completed probe by
  /// the rate limiter's reuse window.
  int64_t probes_reused = 0;
  /// Probe requests dropped by the rate limiter / admission bound.
  int64_t probes_shed = 0;
  /// Wall-clock query processing time of this engine (excludes
  /// simulated network time).
  double processing_ms = 0.0;
  /// Magnitude of negative (elapsed - sim_wall) skew, surfaced
  /// instead of silently clamped into processing_ms; nonzero means
  /// the network wall-time accounting double-counted somewhere and
  /// tests assert it stays zero.
  double processing_skew_ms = 0.0;
  /// Simulated data-collection latency of the query's one probe
  /// round: the max over its parallel probes and joined flights.
  TimeMs collection_latency_ms = 0;
  /// Readings contributing to the result (probed successes + cached).
  int64_t result_size = 0;
  /// Sensors inside the region (the "ideal result set size"); filled
  /// by the engine when requested.
  int64_t region_sensor_count = -1;

  std::vector<TerminalRecord> terminals;

  void MergeCounters(const QueryStats& other);
};

struct QueryResult {
  std::vector<GroupResult> groups;
  /// Readings freshly collected by this query.
  std::vector<Reading> collected;
  /// Cached readings that contributed (filled only when
  /// Query::return_readings is set).
  std::vector<Reading> served_from_cache;
  QueryStats stats;

  /// Merge of all group aggregates.
  Aggregate Total() const {
    Aggregate a;
    for (const GroupResult& g : groups) a.Merge(g.agg);
    return a;
  }
};

}  // namespace colr

#endif  // COLR_CORE_QUERY_H_
