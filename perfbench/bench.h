#ifndef COLR_PERFBENCH_BENCH_H_
#define COLR_PERFBENCH_BENCH_H_

// Shared pieces of the portal benchmark: run arguments, the result
// every workload returns, and the small statistics and process probes
// the workloads compute their metrics with.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/tree.h"
#include "sensor/sensor.h"
#include "workload/live_local.h"

namespace colr::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time per run (per phase half in a traced run).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny inputs and short runs, every check kept (the benchmark's own
  /// smoke test).
  bool smoke = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// What one run reports. An operation fails when the program returned
/// an error for it, lost it, or gave an output that failed a check;
/// `correct` is false as soon as any output or run-level check failed.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  /// First few check failures, printed to stderr.
  std::vector<std::string> problems;

  /// Records a failed output check (counts one failed operation).
  void CheckFailed(std::string what) {
    correct = false;
    ++failed;
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Seed of the benchmark's sensor world: the catalog (and the pool of
/// viewports its users look at) is fixed, as the paper's YellowPages
/// catalog was; a run's --seed chooses the traffic on it — which
/// queries arrive and when, probe outcomes, sampling draws and reading
/// values. A world drawn per seed would move every metric by whichever
/// city the Zipf draw made largest, far beyond any bound a regression
/// check can use.
inline constexpr uint64_t kWorldSeed = 20080407;

/// The Live-Local world at the benchmark's scale: 30k sensors in 120
/// cities and a 20-hour pool of 20k viewport queries (smoke: a tenth).
LiveLocalOptions LiveLocalWorld(bool smoke);

/// `n` consecutive queries of `pool`, starting at a position drawn from
/// `seed`, with trace times rebased so the first arrives at 0.
std::vector<LiveLocalWorkload::QueryRecord> QueryWindow(
    const std::vector<LiveLocalWorkload::QueryRecord>& pool, uint64_t seed,
    size_t n);

/// Portal query text for a viewport, as the SensorMap front end sends
/// it: COUNT per level-2 cluster over the last 5 minutes. The corners
/// are written with 6 decimals; `sent`, when given, receives the
/// rectangle the text actually describes.
std::string ViewportQueryText(const Rect& region, int sample_size,
                              Rect* sent = nullptr);

/// The tree shape every workload builds (the harnesses' usual one:
/// fanout 8, 32 sensors per leaf, four slots across the longest expiry
/// period) with a reading cache of `cache_capacity`.
ColrTree::Options TreeOptions(const std::vector<SensorInfo>& sensors,
                              size_t cache_capacity);

/// Number of catalog sensors inside `region` (closed rectangle), by
/// scanning the whole catalog — the benchmark's own reference, kept
/// independent of the tree.
int BruteForceCount(const std::vector<SensorInfo>& sensors,
                    const Rect& region);

/// Workload entry points (workload_*.cc).
RunResult RunLiveLocalReplay(const Args& args);
RunResult RunFlashCrowdServe(const Args& args);

}  // namespace colr::perfbench

#endif  // COLR_PERFBENCH_BENCH_H_
