// live_local_replay: one closed-loop stream of Live-Local portal query
// text through SensorPortal::ExecuteOne. The SimClock moves to each
// query's trace time, so the cache window rolls as it would in the
// portal; the simulated sensor network is instantaneous, so wall time
// is the program's own CPU and the collection cost is reported in
// simulated milliseconds. Three of four queries sample (SAMPLESIZE 40),
// one in four is exact; the reading cache holds a quarter of the
// catalog.
//
// A round replays the whole trace. Rounds are spaced further apart in
// trace time than the cache window is long, so every round starts from
// an expunged cache and sees the same sequence of cache states.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/tree.h"
#include "layers.h"
#include "portal/parser.h"
#include "portal/portal.h"
#include "sensor/network.h"
#include "trace.h"

namespace colr::perfbench {
namespace {

constexpr int kSampleSize = 40;
constexpr int kSetups = 48;

/// Queries per round: a 10-hour slice of the world's query pool.
size_t RoundQueries(bool smoke) { return smoke ? 500 : 10000; }

/// One portal stack over the world and one run's traffic.
struct Testbed {
  LiveLocalWorkload workload;  // sensors + this run's query window
  std::vector<std::string> texts;
  /// The rectangles the texts describe (what the checks count over).
  std::vector<Rect> regions;
  TimeMs round_span_ms = 0;
  SimClock clock;
  std::unique_ptr<SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<ColrEngine> engine;
  std::unique_ptr<portal::SensorPortal> portal;
  double generate_s = 0.0;
  double build_s = 0.0;
};

bool IsExact(size_t i) { return i % 4 == 0; }

std::unique_ptr<Testbed> Setup(const Args& args) {
  auto bed = std::make_unique<Testbed>();
  int64_t t0 = NowNs();
  bed->workload = GenerateLiveLocal(LiveLocalWorld(args.smoke));
  bed->workload.queries = QueryWindow(bed->workload.queries, args.seed,
                                      RoundQueries(args.smoke));
  const size_t n = bed->workload.queries.size();
  bed->texts.reserve(n);
  bed->regions.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bed->texts.push_back(ViewportQueryText(bed->workload.queries[i].region,
                                           IsExact(i) ? 0 : kSampleSize,
                                           &bed->regions[i]));
  }
  bed->round_span_ms = bed->workload.queries.back().at + kMsPerHour;
  int64_t t1 = NowNs();
  bed->generate_s = static_cast<double>(t1 - t0) / 1e9;

  SensorNetwork::Options nopts;
  nopts.seed = DeriveSeed(args.seed, 1);
  bed->network = std::make_unique<SensorNetwork>(bed->workload.sensors,
                                                 &bed->clock, nopts);
  bed->network->set_value_fn(MakeRestaurantWaitingTimeFn(args.seed));
  const ColrTree::Options topts =
      TreeOptions(bed->workload.sensors, bed->workload.sensors.size() / 4);
  bed->tree = std::make_unique<ColrTree>(bed->workload.sensors, topts);
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  eopts.seed = DeriveSeed(args.seed, 2);
  bed->engine = std::make_unique<ColrEngine>(bed->tree.get(),
                                             bed->network.get(), eopts);
  bed->portal = std::make_unique<portal::SensorPortal>(bed->tree.get(),
                                                       bed->engine.get());
  bed->build_s = static_cast<double>(NowNs() - t1) / 1e9;
  return bed;
}

/// Sets up `n` testbeds one after another, each replacing the last, and
/// appends each one's set-up time to `setup_s`; returns the last.
std::unique_ptr<Testbed> TimedSetups(const Args& args, int n,
                                     std::vector<double>* setup_s) {
  std::unique_ptr<Testbed> bed;
  for (int i = 0; i < n; ++i) {
    bed.reset();
    bed = Setup(args);
    setup_s->push_back(bed->generate_s + bed->build_s);
  }
  return bed;
}

/// What a replay observed, for metrics and for comparing a traced run
/// with an untraced one.
struct Replay {
  int64_t queries = 0;
  int rounds = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
  int64_t terminals = 0;
  /// Sampled queries over regions holding >= kSampleSize sensors.
  int64_t big_sampled_queries = 0;
  int64_t big_sampled_readings = 0;
  // Exact counts that must repeat between two replays of one seed.
  int64_t probes = 0;
  int64_t nodes = 0;
  int64_t evictions = 0;
};

/// How a replay issues each query.
enum class QueryPath {
  /// SensorPortal::ExecuteOne, as the portal serves a query.
  kExecuteOne,
  /// ExecuteOne's public steps — Parse, PlanQuery, ColrEngine::Execute —
  /// each in its own span when there is a trace log. ExecuteOne does
  /// exactly these plus result formatting, which has no public seam.
  kSteps,
};

/// Replays whole rounds until `seconds` have passed (at least one), or
/// exactly `fixed_rounds` rounds when that is > 0.
Replay RunRounds(Testbed& bed, const std::vector<int>& in_region,
                 double seconds, int fixed_rounds, QueryPath path,
                 TraceLog* log, RunResult* result) {
  Replay out;
  const int64_t probes0 = bed.network->counters().probes.load();
  const QueryStats engine0 = bed.engine->cumulative();
  const TreeCounts tree0 = TreeCounts::Of(*bed.tree);
  const auto& queries = bed.workload.queries;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  uint64_t op = 0;
  for (int round = 0;; ++round) {
    if (fixed_rounds > 0 ? round >= fixed_rounds
                         : (round > 0 && static_cast<double>(NowNs() - start) /
                                                 1e9 >= seconds)) {
      break;
    }
    const TimeMs offset = static_cast<TimeMs>(round) * bed.round_span_ms;
    bed.clock.SetMs(offset + queries.front().at);
    {
      ScopedSpan span(log, SpanName::kTreeAdvance, op);
      bed.tree->AdvanceTo(bed.clock.NowMs());
    }
    for (size_t i = 0; i < queries.size(); ++i, ++op) {
      bed.clock.SetMs(offset + queries[i].at);
      ExecutionContext ctx(bed.engine->QuerySeed(i));
      QueryStats stats;
      std::vector<GroupCount> groups;
      std::string error;
      const int64_t t0 = NowNs();
      if (path == QueryPath::kExecuteOne) {
        Result<rel::Relation> rel =
            bed.portal->ExecuteOne(bed.texts[i], ctx, &stats);
        out.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        if (rel.ok()) {
          groups = GroupsOf(*rel);
        } else {
          error = rel.status().ToString();
        }
      } else {
        ScopedSpan span(log, SpanName::kLlQuery, op);
        Result<portal::ParsedQuery> parsed(Status::Internal("unset"));
        {
          ScopedSpan s(log, SpanName::kPortalParse, op);
          parsed = portal::Parse(bed.texts[i]);
        }
        Result<Query> planned(Status::Internal("unset"));
        if (parsed.ok()) {
          ScopedSpan s(log, SpanName::kPortalPlan, op);
          planned = bed.portal->PlanQuery(*parsed, *bed.tree);
        }
        if (planned.ok()) {
          QueryResult qr;
          {
            ScopedSpan s(log, SpanName::kEngineExecute, op);
            qr = bed.engine->Execute(*planned, ctx);
          }
          stats = qr.stats;
          groups = GroupsOf(qr);
        } else {
          error = parsed.ok() ? planned.status().ToString()
                              : parsed.status().ToString();
        }
      }
      ++out.queries;
      if (!error.empty()) {
        result->CheckFailed("query " + std::to_string(i) + ": " + error);
        continue;
      }
      out.terminals += static_cast<int64_t>(stats.terminals.size());
      const std::string bad =
          CheckAnswer(groups, in_region[i], IsExact(i), FailedProbes(stats));
      if (!bad.empty()) {
        result->CheckFailed("query " + std::to_string(i) + ": " + bad);
        continue;
      }
      if (!IsExact(i) && in_region[i] >= kSampleSize) {
        ++out.big_sampled_queries;
        for (const GroupCount& g : groups) {
          out.big_sampled_readings += g.sampled;
        }
      }
    }
    out.rounds = round + 1;
  }
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.probes = bed.network->counters().probes.load() - probes0;
  out.nodes =
      bed.engine->cumulative().nodes_traversed - engine0.nodes_traversed;
  out.evictions = TreeCounts::Of(*bed.tree).Minus(tree0).evicted;
  return out;
}

/// Layered sampling must deliver at least R readings on average where
/// the region holds at least R sensors (oversampling makes up for
/// unavailable ones).
void CheckSampleSize(const Replay& r, RunResult* result) {
  if (r.big_sampled_queries == 0) return;
  const double mean = static_cast<double>(r.big_sampled_readings) /
                      static_cast<double>(r.big_sampled_queries);
  if (mean < kSampleSize) {
    result->CheckFailed("sampled queries averaged " + std::to_string(mean) +
                        " readings, below SAMPLESIZE " +
                        std::to_string(kSampleSize));
  }
}

}  // namespace

RunResult RunLiveLocalReplay(const Args& args) {
  RunResult result;
  // Half the set-ups are timed before the measured phase and half after
  // it, so that their median samples the host's speed at both ends of
  // the run.
  std::vector<double> setup_s;
  std::unique_ptr<Testbed> bed = TimedSetups(args, kSetups / 2, &setup_s);
  std::vector<int> in_region;
  in_region.reserve(bed->regions.size());
  for (const Rect& r : bed->regions) {
    in_region.push_back(BruteForceCount(bed->workload.sensors, r));
  }

  if (!args.trace) {
    const Replay r = RunRounds(*bed, in_region, args.seconds, 0,
                               QueryPath::kExecuteOne, nullptr, &result);
    CheckSampleSize(r, &result);
    result.attempted = r.queries;
    EndToEnd e;
    e.ops_per_s = Ratio(static_cast<double>(r.queries), r.wall_s);
    e.latency_p99_ms = Percentile(r.latency_ms, 0.99);
    e.cpu_us_per_op = Ratio(r.cpu_s * 1e6, static_cast<double>(r.queries));
    e.probes_per_query =
        Ratio(static_cast<double>(r.probes), static_cast<double>(r.queries));
    e.collection_ms_per_query =
        Ratio(static_cast<double>(bed->engine->cumulative()
                                      .collection_latency_ms),
              static_cast<double>(r.queries));
    bed.reset();
    TimedSetups(args, kSetups - kSetups / 2, &setup_s);
    e.setup_s = Median(setup_s);
    e.Emit(&result.metrics);
    return result;
  }

  // Traced run, in three parts. The first replays through ExecuteOne
  // for a third of the time, as the untraced run does, and fixes the
  // number of rounds. The second and third replay as many rounds on
  // fresh testbeds through ExecuteOne's public steps, without and then
  // with spans and lock statistics; all three must agree exactly on
  // probes, nodes and evictions. The tracing overhead compares the
  // second and third, which run the same calls.
  const Replay plain = RunRounds(*bed, in_region, args.seconds / 3, 0,
                                 QueryPath::kExecuteOne, nullptr, &result);
  bed.reset();
  bed = Setup(args);
  const Replay steps = RunRounds(*bed, in_region, 0.0, plain.rounds,
                                 QueryPath::kSteps, nullptr, &result);
  bed.reset();
  std::unique_ptr<Testbed> traced_bed = Setup(args);
  Tracer tracer;
  TraceLog* log = tracer.NewLog();
  SyncStatsRegistry::Enable();
  const SyncStatsSnapshot sync0 = SyncStatsRegistry::Instance().Snapshot();
  const QueryStats engine0 = traced_bed->engine->cumulative();
  const ProbeScheduler::Stats probe0 =
      traced_bed->engine->probe_scheduler().stats();
  const TreeCounts tree0 = TreeCounts::Of(*traced_bed->tree);
  const Replay traced = RunRounds(*traced_bed, in_region, 0.0, plain.rounds,
                                  QueryPath::kSteps, log, &result);
  CheckSampleSize(plain, &result);
  for (const Replay* r : {&steps, &traced}) {
    CheckSampleSize(*r, &result);
    if (r->probes != plain.probes || r->nodes != plain.nodes ||
        r->evictions != plain.evictions) {
      result.CheckFailed(
          std::string(r == &traced ? "traced" : "untraced step-by-step") +
          " replay diverged from the ExecuteOne one: probes " +
          std::to_string(r->probes) + " vs " + std::to_string(plain.probes) +
          ", nodes " + std::to_string(r->nodes) + " vs " +
          std::to_string(plain.nodes) + ", evictions " +
          std::to_string(r->evictions) + " vs " +
          std::to_string(plain.evictions));
    }
  }
  result.attempted = plain.queries + steps.queries + traced.queries;

  const QueryStats engine =
      EngineDelta(traced_bed->engine->cumulative(), engine0);
  LayerReport layers;
  layers.portal_parse_us = tracer.Summarize(SpanName::kPortalParse).mean_us;
  layers.portal_plan_us = tracer.Summarize(SpanName::kPortalPlan).mean_us;
  const Tracer::Summary exec = tracer.Summarize(SpanName::kEngineExecute);
  layers.engine_execute_p50_us = exec.p50_us;
  layers.engine_execute_p99_us = exec.p99_us;
  layers.tree_advance_us = tracer.Summarize(SpanName::kTreeAdvance).mean_us;
  layers.tree_build_s = traced_bed->build_s;
  layers.workload_generate_s = traced_bed->generate_s;
  layers.SetEngine(engine, traced.queries, traced.terminals);
  layers.SetProbe(
      ProbeDelta(traced_bed->engine->probe_scheduler().stats(), probe0),
      traced.queries);
  // Every reading a query collects is inserted into the cache.
  layers.SetTree(TreeCounts::Of(*traced_bed->tree).Minus(tree0),
                 engine.probe_successes, ShardBalance(*traced_bed->tree));
  layers.SetSync(
      SyncStatsDelta(SyncStatsRegistry::Instance().Snapshot(), sync0));
  layers.trace_overhead_pct =
      100.0 * (Ratio(traced.cpu_s, static_cast<double>(traced.queries)) /
                   Ratio(steps.cpu_s, static_cast<double>(steps.queries)) -
               1.0);
  layers.trace_spans = tracer.TotalSpans();
  layers.Emit(&result.metrics);
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "cannot write trace %s\n", args.trace_out.c_str());
  }
  return result;
}

}  // namespace colr::perfbench
