#ifndef COLR_PERFBENCH_LAYERS_H_
#define COLR_PERFBENCH_LAYERS_H_

// Per-layer metrics, read from the layers' public counter snapshots
// (ColrEngine::cumulative, ProbeScheduler::stats, ColrTree maintenance
// counters, SyncStatsRegistry) and from the benchmark's own spans.
// Every workload emits the same set; a layer a workload does not
// reach, or reaches only where the public API offers no seam to time
// it, reads 0 (README.md lists which).

#include <cstdint>

#include "bench.h"
#include "common/sync_stats.h"
#include "core/engine.h"
#include "core/probe_scheduler.h"
#include "core/tree.h"

namespace colr::perfbench {

/// Plain copy of a tree's maintenance counters (the live ones are
/// atomics).
struct TreeCounts {
  int64_t rolls = 0;
  int64_t expunged = 0;
  int64_t evicted = 0;
  int64_t late_dropped = 0;
  int64_t recomputes = 0;
  int64_t recompute_retries = 0;

  static TreeCounts Of(const ColrTree& tree);
  TreeCounts Minus(const TreeCounts& before) const;
};

QueryStats EngineDelta(const QueryStats& after, const QueryStats& before);
ProbeScheduler::Stats ProbeDelta(const ProbeScheduler::Stats& after,
                                 const ProbeScheduler::Stats& before);

/// max/mean cached readings over the tree's writer shards (1.0 = even).
double ShardBalance(const ColrTree& tree);

struct LayerReport {
  double portal_parse_us = 0.0;
  double portal_plan_us = 0.0;
  double engine_execute_p50_us = 0.0;
  double engine_execute_p99_us = 0.0;
  double tree_insert_p50_us = 0.0;
  double tree_insert_p99_us = 0.0;
  double tree_advance_us = 0.0;
  double tree_build_s = 0.0;
  double workload_generate_s = 0.0;
  double net_queue_wait_p99_ms = 0.0;
  double net_roundtrip_p50_ms = 0.0;
  double net_roundtrip_p99_ms = 0.0;
  double net_reply_bytes = 0.0;
  double loadgen_late_p99_ms = 0.0;
  double trace_overhead_pct = 0.0;
  int64_t trace_spans = 0;

  /// Engine counters over `queries` queries; `terminals` is the sum of
  /// per-query terminal counts (negative = not observable).
  void SetEngine(const QueryStats& delta, int64_t queries, int64_t terminals);
  void SetProbe(const ProbeScheduler::Stats& delta, int64_t queries);
  /// Tree counters over `inserts` readings offered to InsertReading.
  void SetTree(const TreeCounts& delta, int64_t inserts, double shard_balance);
  void SetSync(const SyncStatsSnapshot& delta) { sync_ = delta; }

  void Emit(Metrics* metrics) const;

 private:
  double engine_processing_us_ = 0.0;
  double engine_nodes_ = 0.0;
  double engine_cached_nodes_ = 0.0;
  double engine_slots_merged_ = 0.0;
  double engine_terminals_ = 0.0;
  double engine_cache_served_share_ = 0.0;
  double probe_requested_ = 0.0;
  double probe_issued_ = 0.0;
  double probe_coalesced_ = 0.0;
  double probe_reused_ = 0.0;
  double probe_shed_ = 0.0;
  double probe_issue_share_ = 0.0;
  double probe_batches_ = 0.0;
  double tree_evictions_per_insert_ = 0.0;
  double tree_recomputes_per_insert_ = 0.0;
  double tree_shard_balance_ = 0.0;
  TreeCounts tree_;
  SyncStatsSnapshot sync_;
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json's
/// order.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double latency_p99_ms = 0.0;
  double cpu_us_per_op = 0.0;
  double probes_per_query = 0.0;
  double collection_ms_per_query = 0.0;

  /// Adds peak_rss_mb, read at the time of the call.
  void Emit(Metrics* metrics) const;
};

}  // namespace colr::perfbench

#endif  // COLR_PERFBENCH_LAYERS_H_
