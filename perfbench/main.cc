// portal_bench: runs one benchmark workload against the COLR-Tree
// portal and prints, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// usage: portal_bench --workload NAME --seed N --seconds S --trace 0|1
//                     [--smoke] [--trace-out PATH]
//
// Workloads: live_local_replay, flash_crowd_serve (README.md). --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. A human-readable summary goes to stderr.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "bench.h"
#include "common/rng.h"
#include "common/sync.h"

namespace colr::perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

LiveLocalOptions LiveLocalWorld(bool smoke) {
  LiveLocalOptions o;
  o.num_sensors = smoke ? 3000 : 30000;
  o.num_queries = smoke ? 2000 : 20000;
  o.num_cities = smoke ? 30 : 120;
  o.duration_ms = 20 * kMsPerHour;
  o.seed = kWorldSeed;
  return o;
}

std::vector<LiveLocalWorkload::QueryRecord> QueryWindow(
    const std::vector<LiveLocalWorkload::QueryRecord>& pool, uint64_t seed,
    size_t n) {
  n = std::min(n, pool.size());
  Rng rng(DeriveSeed(seed, 0x5EEDu));
  const size_t first = rng.UniformInt(pool.size() - n + 1);
  std::vector<LiveLocalWorkload::QueryRecord> out(
      pool.begin() + static_cast<std::ptrdiff_t>(first),
      pool.begin() + static_cast<std::ptrdiff_t>(first + n));
  const TimeMs t0 = out.empty() ? 0 : out.front().at;
  for (auto& q : out) q.at -= t0;
  return out;
}

std::string ViewportQueryText(const Rect& region, int sample_size,
                              Rect* sent) {
  char corners[4][32];
  const double values[4] = {region.min_x, region.min_y, region.max_x,
                            region.max_y};
  for (int i = 0; i < 4; ++i) {
    std::snprintf(corners[i], sizeof(corners[i]), "%.6f", values[i]);
  }
  if (sent != nullptr) {
    *sent = Rect::FromCorners(std::strtod(corners[0], nullptr),
                              std::strtod(corners[1], nullptr),
                              std::strtod(corners[2], nullptr),
                              std::strtod(corners[3], nullptr));
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "SELECT count(*) FROM sensor S "
                "WHERE S.location WITHIN RECT(%s, %s, %s, %s) "
                "AND S.time BETWEEN now()-5 AND now() mins "
                "CLUSTER LEVEL 2 SAMPLESIZE %d",
                corners[0], corners[1], corners[2], corners[3], sample_size);
  return buf;
}

ColrTree::Options TreeOptions(const std::vector<SensorInfo>& sensors,
                              size_t cache_capacity) {
  ColrTree::Options o;
  o.cluster.fanout = 8;
  o.cluster.leaf_capacity = 32;
  o.cache_capacity = cache_capacity;
  for (const SensorInfo& s : sensors) {
    o.t_max_ms = std::max(o.t_max_ms, s.expiry_ms);
  }
  o.slot_delta_ms = o.t_max_ms / 4;
  return o;
}

int BruteForceCount(const std::vector<SensorInfo>& sensors,
                    const Rect& region) {
  int n = 0;
  for (const SensorInfo& s : sensors) {
    n += (s.location.x >= region.min_x && s.location.x <= region.max_x &&
          s.location.y >= region.min_y && s.location.y <= region.max_y)
             ? 1
             : 0;
  }
  return n;
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload live_local_replay|flash_crowd_serve "
               "--seed N --seconds S --trace 0|1 "
               "[--smoke] [--trace-out PATH]\n",
               argv0);
  return 2;
}

void PrintResult(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const Metrics::Item& m : r.metrics.items()) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace colr::perfbench

int main(int argc, char** argv) {
  using namespace colr::perfbench;
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.workload.empty() || !have_trace || !(args.seconds > 0.0)) {
    return Usage(argv[0]);
  }

  RunResult result;
  if (args.workload == "live_local_replay") {
    result = RunLiveLocalReplay(args);
  } else if (args.workload == "flash_crowd_serve") {
    result = RunFlashCrowdServe(args);
  } else {
    return Usage(argv[0]);
  }

  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::fprintf(stderr, "%s seed %llu: attempted %lld, failed %lld, %s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed),
               result.correct ? "outputs correct" : "OUTPUTS INCORRECT");
  for (const Metrics::Item& m : result.metrics.items()) {
    if (m.value != 0.0) {
      std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  PrintResult(result);
  return 0;
}
