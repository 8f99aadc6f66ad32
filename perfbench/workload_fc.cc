// flash_crowd_serve: the flash-crowd trace (most queries on one hot,
// degraded viewport) served by PortalServer over TCP loopback to one
// connection per core, at most four. Arrivals are open-loop Poisson at
// a fixed rate below the server's capacity, and each query's latency is
// timed from its scheduled arrival, so a stall shows in the queries
// queued behind it. A ReplayClock moves trace time at kSpeedup x wall
// time, so staleness windows expire mid-run and hot sensors are
// re-probed; simulated collection latency is slept (kLatencyScale), so
// probe flights dwell and concurrent queries join them. One paced
// collector inserts readings beside the queries, half of them inside
// the hot viewport, so reads contend with writes.
//
// A round is the whole trace at the fixed rate, with the collector's
// share of readings spread evenly over it. The whole schedule is drawn
// before the first arrival; a connection worker that is free claims the
// next arrival and sends it at its instant, so an arrival waits only
// when every connection is busy.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/tree.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "portal/portal.h"
#include "sensor/network.h"
#include "trace.h"
#include "workload/flash_crowd.h"

namespace colr::perfbench {
namespace {

constexpr int kSetups = 100;
constexpr int kServerThreads = 4;
/// Real ms slept per simulated ms of collection latency.
constexpr double kLatencyScale = 1e-3;
/// Trace ms per wall ms.
constexpr double kSpeedup = 120.0;
/// Offered arrivals per second: a sixth of the server's capacity on a
/// 4-core host (about 600/s, where the backlog starts to grow), so the
/// latency tail is the workload's, not a queue's.
constexpr double kOfferedQps = 100.0;
/// Collector readings per second.
constexpr double kCollectorPerSec = 2000.0;

int Connections() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(cores, 1, 4));
}

struct Testbed {
  FlashCrowdWorkload workload;
  std::vector<std::string> texts;
  /// The rectangles the texts describe (what the checks count over).
  std::vector<Rect> regions;
  std::vector<SensorId> hot_sensors;
  TimeMs event_at_ms = 0;
  ReplayClock clock;
  ThreadPool pool{kServerThreads};
  std::unique_ptr<SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<ColrEngine> engine;
  std::unique_ptr<portal::SensorPortal> portal;
  /// Declared last: destroyed (and stopped) before what it serves.
  std::unique_ptr<net::PortalServer> server;
  int port = -1;
  double generate_s = 0.0;
  double build_s = 0.0;
  double start_s = 0.0;
};

std::unique_ptr<Testbed> Setup(const Args& args) {
  auto bed = std::make_unique<Testbed>();
  const int64_t t0 = NowNs();
  // The world's flash crowd and its queries; the run's seed draws each
  // round's order and arrival times (Serve).
  FlashCrowdOptions fopts;
  fopts.num_sensors = args.smoke ? 3000 : 30000;
  fopts.num_cities = args.smoke ? 10 : 40;
  fopts.num_queries = args.smoke ? 100 : 400;
  fopts.seed = kWorldSeed;
  bed->workload = GenerateFlashCrowd(fopts);
  for (const auto& q : bed->workload.queries) {
    bed->regions.emplace_back();
    bed->texts.push_back(ViewportQueryText(q.region, 0, &bed->regions.back()));
  }
  for (const SensorInfo& s : bed->workload.sensors) {
    if (bed->workload.hot_viewport.Contains(s.location)) {
      bed->hot_sensors.push_back(s.id);
    }
  }
  bed->event_at_ms = fopts.event_at_ms;
  bed->clock.Restart(fopts.event_at_ms, kSpeedup);
  const int64_t t1 = NowNs();
  bed->generate_s = static_cast<double>(t1 - t0) / 1e9;

  SensorNetwork::Options nopts;
  nopts.seed = DeriveSeed(args.seed, 1);
  nopts.simulated_latency_scale = kLatencyScale;
  bed->network = std::make_unique<SensorNetwork>(bed->workload.sensors,
                                                 &bed->clock, nopts);
  bed->network->set_value_fn(MakeRestaurantWaitingTimeFn(args.seed));
  bed->network->set_thread_pool(&bed->pool);
  // Half the catalog: the hot viewport's sensors fit, the background
  // does not.
  const ColrTree::Options topts =
      TreeOptions(bed->workload.sensors, bed->workload.sensors.size() / 2);
  bed->tree = std::make_unique<ColrTree>(bed->workload.sensors, topts);
  ColrEngine::Options eopts;
  eopts.mode = ColrEngine::Mode::kColr;
  eopts.seed = DeriveSeed(args.seed, 2);
  bed->engine = std::make_unique<ColrEngine>(bed->tree.get(),
                                             bed->network.get(), eopts);
  bed->portal = std::make_unique<portal::SensorPortal>(bed->tree.get(),
                                                       bed->engine.get());
  const int64_t t2 = NowNs();
  bed->build_s = static_cast<double>(t2 - t1) / 1e9;

  bed->server =
      std::make_unique<net::PortalServer>(bed->portal.get(), &bed->pool);
  auto listener = net::TcpListen(0);
  if (listener.ok()) {
    bed->port = (*listener)->local_port();
    if (!bed->server->Start(std::move(*listener)).ok()) bed->port = -1;
  }
  bed->start_s = static_cast<double>(NowNs() - t2) / 1e9;
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
    setup_s->push_back(bed->generate_s + bed->build_s + bed->start_s);
  }
  return bed;
}

struct WorkItem {
  size_t text = 0;
  int64_t scheduled_ns = 0;
  uint64_t op = 0;
};

/// Every round offers the same queries over exactly `round_ms`: a
/// Poisson process conditioned on the count (uniform arrival times), in
/// an order drawn afresh each round, so one run averages over several
/// arrival patterns.
std::vector<WorkItem> DrawSchedule(size_t texts, double round_ms, int rounds,
                                   uint64_t seed, int64_t start) {
  std::vector<WorkItem> items;
  for (int r = 0; r < rounds; ++r) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(r)));
    std::vector<size_t> order(texts);
    std::vector<double> at_ms(texts);
    for (size_t i = 0; i < texts; ++i) {
      order[i] = i;
      at_ms[i] = rng.Uniform(0.0, round_ms);
    }
    std::shuffle(order.begin(), order.end(), rng);
    std::sort(at_ms.begin(), at_ms.end());
    for (size_t i = 0; i < texts; ++i) {
      const int64_t due =
          start + static_cast<int64_t>((r * round_ms + at_ms[i]) * 1e6);
      items.push_back({order[i], due, items.size()});
    }
  }
  return items;
}

void SleepUntil(int64_t ns) {
  for (;;) {
    const int64_t lead = ns - NowNs();
    if (lead <= 0) return;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<int64_t>(lead, 2'000'000)));
  }
}

/// What one connection worker saw.
struct WorkerOutcome {
  int64_t replies = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t probes = 0;
  double reply_bytes = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> roundtrip_ms;
  /// How late each arrival that a free connection waited for was sent.
  std::vector<double> late_ms;
  std::vector<std::string> problems;
  bool wrong_output = false;
};

struct Served {
  int64_t scheduled = 0;
  int64_t collector_readings = 0;
  int rounds = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  WorkerOutcome total;
};

/// Serves as many whole rounds as cover `seconds` (at least one), or
/// exactly `fixed_rounds` rounds when that is > 0.
Served Serve(Testbed& bed, const Args& args, const std::vector<int>& in_region,
             double seconds, int fixed_rounds, Tracer* tracer) {
  Served out;
  const double round_ms =
      1000.0 * static_cast<double>(bed.texts.size()) / kOfferedQps;
  out.rounds = fixed_rounds > 0
                   ? fixed_rounds
                   : std::max(1, static_cast<int>(
                                     std::ceil(seconds * 1000.0 / round_ms)));
  const int64_t readings =
      static_cast<int64_t>(kCollectorPerSec * round_ms / 1000.0) * out.rounds;
  const double reading_gap_ms =
      round_ms * out.rounds / static_cast<double>(std::max<int64_t>(readings, 1));

  const int conns = Connections();
  std::vector<std::unique_ptr<net::PortalClient>> clients;
  for (int c = 0; c < conns; ++c) {
    auto conn = net::TcpConnect("127.0.0.1", bed.port);
    if (conn.ok()) {
      clients.push_back(std::make_unique<net::PortalClient>(std::move(*conn)));
    } else {
      clients.push_back(nullptr);
    }
  }

  std::vector<WorkerOutcome> outcomes(static_cast<size_t>(conns));
  std::atomic<size_t> next_item{0};
  std::atomic<int64_t> last_reply_ns{0};
  const int64_t start = NowNs() + 20'000'000;  // first arrival in 20 ms
  const std::vector<WorkItem> items =
      DrawSchedule(bed.texts.size(), round_ms, out.rounds,
                   DeriveSeed(args.seed, 4), start);
  out.scheduled = static_cast<int64_t>(items.size());
  // Every serving phase starts at the event, whatever set-up cost.
  bed.clock.Restart(bed.event_at_ms);

  auto worker = [&](int c) {
    WorkerOutcome& o = outcomes[static_cast<size_t>(c)];
    net::PortalClient* client = clients[static_cast<size_t>(c)].get();
    TraceLog* log = tracer != nullptr ? tracer->NewLog() : nullptr;
    std::vector<GroupCount> groups;
    for (;;) {
      const size_t i = next_item.fetch_add(1);
      if (i >= items.size()) break;
      const WorkItem& item = items[i];
      if (NowNs() < item.scheduled_ns) {
        SleepUntil(item.scheduled_ns);
        o.late_ms.push_back(static_cast<double>(NowNs() - item.scheduled_ns) /
                            1e6);
      }
      if (client == nullptr) {
        ++o.failed;
        o.problems.push_back("no connection to the server");
        continue;
      }
      const int64_t send = NowNs();
      Result<net::QueryReply> reply = client->Query(bed.texts[item.text]);
      const int64_t recv = NowNs();
      last_reply_ns.store(recv, std::memory_order_relaxed);
      if (!reply.ok()) {
        ++o.failed;
        o.problems.push_back("lost reply: " + reply.status().ToString());
        continue;
      }
      ++o.replies;
      o.latency_ms.push_back(static_cast<double>(recv - item.scheduled_ns) /
                             1e6);
      o.queue_ms.push_back(static_cast<double>(send - item.scheduled_ns) /
                           1e6);
      o.roundtrip_ms.push_back(static_cast<double>(recv - send) / 1e6);
      o.reply_bytes += static_cast<double>(reply->body_json.size());
      if (log != nullptr) {
        const int64_t root =
            log->Record(SpanName::kFcRequest, item.op, item.scheduled_ns,
                        recv, recv - item.scheduled_ns, -1);
        log->Record(SpanName::kLoadgenQueue, item.op, item.scheduled_ns, send,
                    0, root);
        log->Record(SpanName::kNetRoundtrip, item.op, send, recv, 0, root);
      }
      if (reply->status != net::WireStatus::kOk) {
        ++o.failed;
        o.problems.push_back(std::string("reply status ") +
                             net::WireStatusName(reply->status));
        continue;
      }
      o.probes += reply->probes;
      std::string bad = ParseGroupReply(reply->body_json, &groups);
      // Not the exact readings + failed probes == in-region identity the
      // other workloads check: with writers evicting and rolling beside
      // the queries, an exact answer now and then misses one sensor
      // (CHANGES.md), so only the bounds are checked here.
      if (bad.empty()) {
        bad = CheckAnswer(groups, in_region[item.text], false, 0);
      }
      if (!bad.empty()) {
        ++o.failed;
        o.wrong_output = true;
        o.problems.push_back("query " + std::to_string(item.text) + ": " + bad);
        continue;
      }
      ++o.ok;
    }
  };

  auto collector = [&] {
    TraceLog* log = tracer != nullptr ? tracer->NewLog() : nullptr;
    Rng pick(DeriveSeed(args.seed, 5));
    for (int64_t j = 0; j < readings; ++j) {
      SleepUntil(start +
                 static_cast<int64_t>((j + 0.5) * reading_gap_ms * 1e6));
      const bool hot = !bed.hot_sensors.empty() && pick.Bernoulli(0.5);
      const SensorId sid =
          hot ? bed.hot_sensors[pick.UniformInt(bed.hot_sensors.size())]
              : static_cast<SensorId>(
                    pick.UniformInt(bed.workload.sensors.size()));
      Reading reading;
      reading.sensor = sid;
      reading.timestamp = bed.clock.NowMs();
      reading.expiry = reading.timestamp + bed.workload.sensors[sid].expiry_ms;
      reading.value = static_cast<double>(pick.UniformInt(1000));
      ScopedSpan span(log, SpanName::kTreeInsert, static_cast<uint64_t>(j));
      bed.tree->InsertReading(reading);
      ++out.collector_readings;
    }
  };

  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker, c);
  std::thread collector_thread(collector);

  for (std::thread& th : threads) th.join();
  collector_thread.join();
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.wall_s = static_cast<double>(last_reply_ns.load() - start) / 1e9;
  for (auto& c : clients) {
    if (c != nullptr) c->Close();
  }

  for (WorkerOutcome& o : outcomes) {
    WorkerOutcome& sum = out.total;
    sum.replies += o.replies;
    sum.ok += o.ok;
    sum.failed += o.failed;
    sum.probes += o.probes;
    sum.reply_bytes += o.reply_bytes;
    sum.wrong_output = sum.wrong_output || o.wrong_output;
    sum.latency_ms.insert(sum.latency_ms.end(), o.latency_ms.begin(),
                          o.latency_ms.end());
    sum.queue_ms.insert(sum.queue_ms.end(), o.queue_ms.begin(),
                        o.queue_ms.end());
    sum.roundtrip_ms.insert(sum.roundtrip_ms.end(), o.roundtrip_ms.begin(),
                            o.roundtrip_ms.end());
    sum.late_ms.insert(sum.late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    for (std::string& p : o.problems) {
      if (sum.problems.size() < 20) sum.problems.push_back(std::move(p));
    }
  }
  return out;
}

/// Run-level checks after a serving phase: nothing lost, and the probe
/// accounting reconciles across wire replies, the network and the
/// scheduler.
void CheckServed(const Served& s, const Testbed& bed, int64_t net_probes,
                 const ProbeScheduler::Stats& sched, int64_t server_ok0,
                 RunResult* result) {
  result->attempted += s.scheduled;
  result->failed += s.total.failed;
  if (s.total.wrong_output) result->correct = false;
  for (const std::string& p : s.total.problems) {
    if (result->problems.size() < 20) result->problems.push_back(p);
  }
  const int64_t handled = s.total.failed + s.total.ok;
  if (handled != s.scheduled) {
    result->CheckFailed(std::to_string(s.scheduled - handled) +
                        " arrivals never answered");
  }
  if (s.total.probes != net_probes && s.total.failed == 0) {
    result->CheckFailed("replies report " + std::to_string(s.total.probes) +
                        " probes, network counted " +
                        std::to_string(net_probes));
  }
  if (sched.requested != sched.issued + sched.coalesced + sched.reused +
                             sched.shed_rate_limited + sched.shed_admission) {
    result->CheckFailed("scheduler requested != issued + coalesced + "
                        "reused + shed");
  }
  const int64_t server_ok = bed.server->counters().queries_ok.load() -
                            server_ok0;
  if (server_ok != s.total.ok && !s.total.wrong_output) {
    result->CheckFailed("server answered " + std::to_string(server_ok) +
                        " queries OK, clients received " +
                        std::to_string(s.total.ok));
  }
}

}  // namespace

RunResult RunFlashCrowdServe(const Args& args) {
  RunResult result;
  // Half the set-ups are timed before the measured phase and half after
  // it, so that their median samples the host's speed at both ends of
  // the run.
  std::vector<double> setup_s;
  std::unique_ptr<Testbed> bed = TimedSetups(args, kSetups / 2, &setup_s);
  if (bed->port < 0) {
    result.CheckFailed("the portal server did not start");
    return result;
  }
  std::vector<int> in_region;
  for (const Rect& r : bed->regions) {
    in_region.push_back(BruteForceCount(bed->workload.sensors, r));
  }

  struct Phase {
    Served served;
    QueryStats engine;
    ProbeScheduler::Stats probe;
    TreeCounts tree;
    int64_t net_probes = 0;
  };
  auto serve = [&](Testbed& b, double seconds, int rounds, Tracer* tracer) {
    Phase p;
    const QueryStats engine0 = b.engine->cumulative();
    const ProbeScheduler::Stats probe0 = b.engine->probe_scheduler().stats();
    const TreeCounts tree0 = TreeCounts::Of(*b.tree);
    const int64_t net0 = b.network->counters().probes.load();
    const int64_t server_ok0 = b.server->counters().queries_ok.load();
    p.served = Serve(b, args, in_region, seconds, rounds, tracer);
    p.engine = EngineDelta(b.engine->cumulative(), engine0);
    p.probe = ProbeDelta(b.engine->probe_scheduler().stats(), probe0);
    p.tree = TreeCounts::Of(*b.tree).Minus(tree0);
    p.net_probes = b.network->counters().probes.load() - net0;
    CheckServed(p.served, b, p.net_probes, p.probe, server_ok0, &result);
    if (p.tree.late_dropped > 0) {
      result.failed += p.tree.late_dropped;
      result.problems.push_back(std::to_string(p.tree.late_dropped) +
                                " readings dropped as late");
    }
    return p;
  };

  if (!args.trace) {
    const Phase p = serve(*bed, args.seconds, 0, nullptr);
    const Served& s = p.served;
    const double queries = static_cast<double>(s.scheduled);
    EndToEnd e;
    e.ops_per_s = Ratio(static_cast<double>(s.total.ok), s.wall_s);
    e.latency_p99_ms = Percentile(s.total.latency_ms, 0.99);
    e.cpu_us_per_op = Ratio(s.cpu_s * 1e6, queries);
    e.probes_per_query = Ratio(static_cast<double>(s.total.probes), queries);
    e.collection_ms_per_query =
        Ratio(static_cast<double>(p.engine.collection_latency_ms), queries);
    bed.reset();
    TimedSetups(args, kSetups - kSetups / 2, &setup_s);
    e.setup_s = Median(setup_s);
    e.Emit(&result.metrics);
    return result;
  }

  const Phase plain = serve(*bed, args.seconds / 2, 0, nullptr);
  bed.reset();
  std::unique_ptr<Testbed> traced_bed = Setup(args);
  if (traced_bed->port < 0) {
    result.CheckFailed("the portal server did not start");
    return result;
  }
  Tracer tracer;
  SyncStatsRegistry::Enable();
  const SyncStatsSnapshot sync0 = SyncStatsRegistry::Instance().Snapshot();
  const Phase traced =
      serve(*traced_bed, 0.0, plain.served.rounds, &tracer);
  const Served& s = traced.served;
  const double queries = static_cast<double>(s.scheduled);

  LayerReport layers;
  const Tracer::Summary insert = tracer.Summarize(SpanName::kTreeInsert);
  layers.tree_insert_p50_us = insert.p50_us;
  layers.tree_insert_p99_us = insert.p99_us;
  layers.tree_build_s = traced_bed->build_s;
  layers.workload_generate_s = traced_bed->generate_s;
  layers.SetEngine(traced.engine, s.scheduled, -1);
  layers.SetProbe(traced.probe, s.scheduled);
  layers.SetTree(traced.tree,
                 s.collector_readings + traced.engine.probe_successes,
                 ShardBalance(*traced_bed->tree));
  layers.SetSync(
      SyncStatsDelta(SyncStatsRegistry::Instance().Snapshot(), sync0));
  layers.net_queue_wait_p99_ms = Percentile(s.total.queue_ms, 0.99);
  layers.net_roundtrip_p50_ms = Percentile(s.total.roundtrip_ms, 0.50);
  layers.net_roundtrip_p99_ms = Percentile(s.total.roundtrip_ms, 0.99);
  layers.net_reply_bytes =
      Ratio(s.total.reply_bytes, static_cast<double>(s.total.replies));
  layers.loadgen_late_p99_ms = Percentile(s.total.late_ms, 0.99);
  layers.trace_overhead_pct =
      100.0 * (Ratio(s.cpu_s, queries) /
                   Ratio(plain.served.cpu_s,
                         static_cast<double>(plain.served.scheduled)) -
               1.0);
  layers.trace_spans = tracer.TotalSpans();
  layers.Emit(&result.metrics);
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "cannot write trace %s\n", args.trace_out.c_str());
  }
  return result;
}

}  // namespace colr::perfbench
