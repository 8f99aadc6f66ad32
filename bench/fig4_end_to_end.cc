// Reproduces Fig. 4: end-to-end comparison of flat cache /
// hierarchical cache / COLR-Tree over varying freshness windows.
//   (i)  sensor probes relative to COLR-Tree   (paper: 30-100x)
//   (ii) processing latency relative to COLR-Tree (paper: 3-5x over
//        hier-cache; flat cache far worse)
//   (iii) absolute probes per query — the "heel" of the COLR curve
//        falls near a freshness of ~4 minutes
//   (iv) absolute processing latency per query
//   (v)  simulated data-collection latency per query: the query's one
//        parallel probe round

#include <cstdio>

#include "bench_common.h"

namespace colr::bench {
namespace {

constexpr int kSampleSize = 30;
constexpr int kClusterLevel = 2;

struct RunStats {
  RunningStat probes;
  RunningStat latency_ms;
  RunningStat collection_ms;
};

RunStats RunConfig(const LiveLocalWorkload& workload, ColrEngine::Mode mode,
                   int sample_size, size_t cache_capacity,
                   TimeMs staleness, int max_queries) {
  RunStats stats;
  Testbed bed(workload, mode, cache_capacity);
  bed.Replay(staleness, sample_size, kClusterLevel,
             [&stats](const LiveLocalWorkload::QueryRecord&,
                      const QueryResult& r) {
               stats.probes.Add(
                   static_cast<double>(r.stats.sensors_probed));
               stats.latency_ms.Add(r.stats.processing_ms);
               stats.collection_ms.Add(
                   static_cast<double>(r.stats.collection_latency_ms));
             },
             max_queries);
  return stats;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  PrintHeader("Figure 4", "probes & latency vs freshness window", cfg);

  LiveLocalWorkload workload = GenerateLiveLocal(cfg.WorkloadOptions());
  const size_t cache_cap = workload.sensors.size() / 4;
  // The flat cache scans the whole catalog per query; cap its trace at
  // paper scale so the harness stays tractable.
  const int flat_max = cfg.full ? 5000 : -1;

  const TimeMs freshness_minutes[] = {1, 2, 4, 8, 16};
  std::vector<std::string> json_rows;

  std::printf(
      "%-10s | %12s %12s | %12s %12s | %10s | %10s %10s %10s | %10s %10s "
      "%10s\n",
      "freshness", "flat/colr", "hier/colr", "flat/colr", "hier/colr", "colr",
      "flat", "hier", "colr", "flat", "hier", "colr");
  std::printf("%-10s | %25s | %25s | %10s | %32s | %32s\n", "(min)",
              "probe ratio (i)", "latency ratio (ii)", "probes(iii)",
              "latency ms (iv)", "collection ms (v)");

  for (TimeMs mins : freshness_minutes) {
    const TimeMs staleness = mins * kMsPerMinute;
    RunStats flat = RunConfig(workload, ColrEngine::Mode::kFlatCache, 0,
                              cache_cap, staleness, flat_max);
    RunStats hier = RunConfig(workload, ColrEngine::Mode::kHierCache, 0,
                              cache_cap, staleness, -1);
    RunStats colr = RunConfig(workload, ColrEngine::Mode::kColr,
                              kSampleSize, cache_cap, staleness, -1);

    const double colr_probes = std::max(colr.probes.mean(), 1e-9);
    const double colr_lat = std::max(colr.latency_ms.mean(), 1e-9);
    std::printf(
        "%-10lld | %12.1f %12.1f | %12.1f %12.1f | %10.1f | %10.3f "
        "%10.3f %10.3f | %10.1f %10.1f %10.1f\n",
        static_cast<long long>(mins), flat.probes.mean() / colr_probes,
        hier.probes.mean() / colr_probes,
        flat.latency_ms.mean() / colr_lat,
        hier.latency_ms.mean() / colr_lat, colr.probes.mean(),
        flat.latency_ms.mean(), hier.latency_ms.mean(),
        colr.latency_ms.mean(), flat.collection_ms.mean(),
        hier.collection_ms.mean(), colr.collection_ms.mean());
    json_rows.push_back(
        JsonObject()
            .Field("freshness_min", static_cast<int64_t>(mins))
            .Field("flat_probes", flat.probes.mean())
            .Field("hier_probes", hier.probes.mean())
            .Field("colr_probes", colr.probes.mean())
            .Field("flat_latency_ms", flat.latency_ms.mean())
            .Field("hier_latency_ms", hier.latency_ms.mean())
            .Field("colr_latency_ms", colr.latency_ms.mean())
            .Field("flat_collection_ms", flat.collection_ms.mean())
            .Field("hier_collection_ms", hier.collection_ms.mean())
            .Field("colr_collection_ms", colr.collection_ms.mean())
            .Done());
  }
  WriteJsonReport(cfg, "fig4_end_to_end", json_rows);

  std::printf("\npaper shape: probe ratios 30-100x; latency ratio vs "
              "hier-cache 3-5x; colr probe curve heel near 4 min.\n");
  return 0;
}

}  // namespace
}  // namespace colr::bench

int main(int argc, char** argv) { return colr::bench::Main(argc, argv); }
