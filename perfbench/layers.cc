#include "layers.h"

#include <algorithm>
#include <string>

namespace colr::perfbench {

TreeCounts TreeCounts::Of(const ColrTree& tree) {
  const ColrTree::MaintenanceCounters& m = tree.maintenance();
  TreeCounts c;
  c.rolls = m.rolls.load();
  c.expunged = m.readings_expunged.load();
  c.evicted = m.readings_evicted.load();
  c.late_dropped = m.late_readings_dropped.load();
  c.recomputes = m.slot_recomputes.load();
  c.recompute_retries = m.slot_recompute_retries.load();
  return c;
}

TreeCounts TreeCounts::Minus(const TreeCounts& before) const {
  TreeCounts d;
  d.rolls = rolls - before.rolls;
  d.expunged = expunged - before.expunged;
  d.evicted = evicted - before.evicted;
  d.late_dropped = late_dropped - before.late_dropped;
  d.recomputes = recomputes - before.recomputes;
  d.recompute_retries = recompute_retries - before.recompute_retries;
  return d;
}

QueryStats EngineDelta(const QueryStats& after, const QueryStats& before) {
  QueryStats d;
  d.nodes_traversed = after.nodes_traversed - before.nodes_traversed;
  d.internal_nodes_traversed =
      after.internal_nodes_traversed - before.internal_nodes_traversed;
  d.cached_nodes_accessed =
      after.cached_nodes_accessed - before.cached_nodes_accessed;
  d.sensors_probed = after.sensors_probed - before.sensors_probed;
  d.probe_successes = after.probe_successes - before.probe_successes;
  d.cache_readings_used =
      after.cache_readings_used - before.cache_readings_used;
  d.cached_agg_readings =
      after.cached_agg_readings - before.cached_agg_readings;
  d.slots_merged = after.slots_merged - before.slots_merged;
  d.probes_coalesced = after.probes_coalesced - before.probes_coalesced;
  d.probes_reused = after.probes_reused - before.probes_reused;
  d.probes_shed = after.probes_shed - before.probes_shed;
  d.processing_ms = after.processing_ms - before.processing_ms;
  d.collection_latency_ms =
      after.collection_latency_ms - before.collection_latency_ms;
  d.result_size = after.result_size - before.result_size;
  return d;
}

ProbeScheduler::Stats ProbeDelta(const ProbeScheduler::Stats& after,
                                 const ProbeScheduler::Stats& before) {
  ProbeScheduler::Stats d;
  d.requested = after.requested - before.requested;
  d.issued = after.issued - before.issued;
  d.coalesced = after.coalesced - before.coalesced;
  d.reused = after.reused - before.reused;
  d.shed_rate_limited = after.shed_rate_limited - before.shed_rate_limited;
  d.shed_admission = after.shed_admission - before.shed_admission;
  d.batches = after.batches - before.batches;
  return d;
}

double ShardBalance(const ColrTree& tree) {
  const std::vector<ColrTree::ShardOccupancy> shards = tree.ShardOccupancies();
  size_t max_readings = 0;
  size_t total = 0;
  for (const ColrTree::ShardOccupancy& s : shards) {
    max_readings = std::max(max_readings, s.readings);
    total += s.readings;
  }
  return Ratio(static_cast<double>(max_readings) *
                   static_cast<double>(shards.size()),
               static_cast<double>(total));
}

void LayerReport::SetEngine(const QueryStats& delta, int64_t queries,
                            int64_t terminals) {
  const double q = static_cast<double>(queries);
  engine_processing_us_ = Ratio(delta.processing_ms * 1e3, q);
  engine_nodes_ = Ratio(static_cast<double>(delta.nodes_traversed), q);
  engine_cached_nodes_ =
      Ratio(static_cast<double>(delta.cached_nodes_accessed), q);
  engine_slots_merged_ = Ratio(static_cast<double>(delta.slots_merged), q);
  engine_terminals_ =
      terminals >= 0 ? Ratio(static_cast<double>(terminals), q) : 0.0;
  engine_cache_served_share_ =
      Ratio(static_cast<double>(delta.cache_readings_used +
                                delta.cached_agg_readings),
            static_cast<double>(delta.result_size));
}

void LayerReport::SetProbe(const ProbeScheduler::Stats& delta,
                           int64_t queries) {
  const double q = static_cast<double>(queries);
  probe_requested_ = Ratio(static_cast<double>(delta.requested), q);
  probe_issued_ = Ratio(static_cast<double>(delta.issued), q);
  probe_coalesced_ = Ratio(static_cast<double>(delta.coalesced), q);
  probe_reused_ = Ratio(static_cast<double>(delta.reused), q);
  probe_shed_ = Ratio(
      static_cast<double>(delta.shed_rate_limited + delta.shed_admission), q);
  probe_issue_share_ = Ratio(static_cast<double>(delta.issued),
                             static_cast<double>(delta.requested));
  probe_batches_ = Ratio(static_cast<double>(delta.batches), q);
}

void LayerReport::SetTree(const TreeCounts& delta, int64_t inserts,
                          double shard_balance) {
  const double n = static_cast<double>(inserts);
  tree_evictions_per_insert_ = Ratio(static_cast<double>(delta.evicted), n);
  tree_recomputes_per_insert_ =
      Ratio(static_cast<double>(delta.recomputes), n);
  tree_shard_balance_ = shard_balance;
  tree_ = delta;
}

void LayerReport::Emit(Metrics* m) const {
  m->Set("portal.parse_us", portal_parse_us, "us");
  m->Set("portal.plan_us", portal_plan_us, "us");
  m->Set("engine.execute_p50_us", engine_execute_p50_us, "us");
  m->Set("engine.execute_p99_us", engine_execute_p99_us, "us");
  m->Set("engine.processing_us", engine_processing_us_, "us");
  m->Set("engine.nodes_per_query", engine_nodes_, "count");
  m->Set("engine.cached_nodes_per_query", engine_cached_nodes_, "count");
  m->Set("engine.slots_merged_per_query", engine_slots_merged_, "count");
  m->Set("engine.terminals_per_query", engine_terminals_, "count");
  m->Set("engine.cache_served_share", engine_cache_served_share_, "ratio");
  m->Set("probe.requested_per_query", probe_requested_, "count");
  m->Set("probe.issued_per_query", probe_issued_, "count");
  m->Set("probe.coalesced_per_query", probe_coalesced_, "count");
  m->Set("probe.reused_per_query", probe_reused_, "count");
  m->Set("probe.shed_per_query", probe_shed_, "count");
  m->Set("probe.issue_share", probe_issue_share_, "ratio");
  m->Set("probe.batches_per_query", probe_batches_, "count");
  m->Set("tree.insert_p50_us", tree_insert_p50_us, "us");
  m->Set("tree.insert_p99_us", tree_insert_p99_us, "us");
  m->Set("tree.advance_us", tree_advance_us, "us");
  m->Set("tree.evictions_per_insert", tree_evictions_per_insert_, "ratio");
  m->Set("tree.recomputes_per_insert", tree_recomputes_per_insert_, "ratio");
  m->Set("tree.shard_balance", tree_shard_balance_, "ratio");
  m->Set("tree.rolls", static_cast<double>(tree_.rolls), "count");
  m->Set("tree.expunged", static_cast<double>(tree_.expunged), "count");
  m->Set("tree.recompute_retries",
         static_cast<double>(tree_.recompute_retries), "count");
  m->Set("tree.late_dropped", static_cast<double>(tree_.late_dropped),
         "count");
  m->Set("tree.build_s", tree_build_s, "s");
  m->Set("workload.generate_s", workload_generate_s, "s");
  for (int i = 0; i < kNumSyncSites; ++i) {
    const std::string site = SyncSiteName(static_cast<SyncSite>(i));
    const SyncSiteStats& s = sync_.sites[static_cast<size_t>(i)];
    m->Set("sync." + site + ".wait_ms",
           static_cast<double>(s.total_wait_ns) / 1e6, "ms");
    m->Set("sync." + site + ".contended", static_cast<double>(s.contended),
           "count");
  }
  m->Set("net.queue_wait_p99_ms", net_queue_wait_p99_ms, "ms");
  m->Set("net.roundtrip_p50_ms", net_roundtrip_p50_ms, "ms");
  m->Set("net.roundtrip_p99_ms", net_roundtrip_p99_ms, "ms");
  m->Set("net.reply_bytes", net_reply_bytes, "bytes");
  m->Set("loadgen.late_p99_ms", loadgen_late_p99_ms, "ms");
  m->Set("trace.overhead_pct", trace_overhead_pct, "%");
  m->Set("trace.spans", static_cast<double>(trace_spans), "count");
}

void EndToEnd::Emit(Metrics* m) const {
  m->Set("setup_s", setup_s, "s");
  m->Set("peak_rss_mb", PeakRssMb(), "MiB");
  m->Set("ops_per_s", ops_per_s, "1/s");
  m->Set("latency_p99_ms", latency_p99_ms, "ms");
  m->Set("cpu_us_per_op", cpu_us_per_op, "us");
  m->Set("probes_per_query", probes_per_query, "count");
  m->Set("collection_ms_per_query", collection_ms_per_query, "ms");
}

}  // namespace colr::perfbench
