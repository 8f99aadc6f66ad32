#ifndef COLR_TESTS_CONCURRENT_HARNESS_H_
#define COLR_TESTS_CONCURRENT_HARNESS_H_

// Shared scaffolding for the concurrency stress tests
// (multi_writer_test, concurrency_test, timed_replay_test,
// property_test): grid catalogs, stress tree options, a seeded
// deterministic value stream, and the writer/roller/reader loop the
// TSan targets all drive. Every randomized stress run goes through
// StressSeed()/SeedLogger so a failure prints the exact seed to rerun
// with (COLR_STRESS_SEED=<seed> ctest ...).

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "core/engine.h"
#include "core/tree.h"
#include "gtest/gtest.h"
#include "sensor/network.h"
#include "workload/live_local.h"

namespace colr::testing {

/// The run seed for a stress test: the test's baked-in default unless
/// COLR_STRESS_SEED is set (any strtoull base-0 form: decimal, 0x...).
/// CI pins the seed; a local rerun of a logged failure exports it.
inline uint64_t StressSeed(uint64_t default_seed = 0xC01A57E55ull) {
  const char* env = std::getenv("COLR_STRESS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return default_seed;
}

/// Logs the seed a stress test ran with, and repeats it next to the
/// failure output if the test fails — the one line needed to reproduce.
class SeedLogger {
 public:
  explicit SeedLogger(uint64_t seed) : seed_(seed) {
    std::printf("[ harness  ] stress seed 0x%llx "
                "(override: COLR_STRESS_SEED)\n",
                static_cast<unsigned long long>(seed_));
  }
  ~SeedLogger() {
    if (::testing::Test::HasFailure()) {
      std::printf("[ harness  ] FAILED — rerun with "
                  "COLR_STRESS_SEED=0x%llx\n",
                  static_cast<unsigned long long>(seed_));
    }
  }
  SeedLogger(const SeedLogger&) = delete;
  SeedLogger& operator=(const SeedLogger&) = delete;

 private:
  uint64_t seed_;
};

/// n sensors on a unit grid with a common expiry — the fixed catalog
/// every writer-stress test shards and pounds.
inline std::vector<SensorInfo> GridSensors(int n, TimeMs expiry) {
  std::vector<SensorInfo> sensors;
  sensors.reserve(n);
  const int side = 1 + static_cast<int>(std::sqrt(static_cast<double>(n)));
  for (int i = 0; i < n; ++i) {
    SensorInfo s;
    s.id = i;
    s.location = Point{static_cast<double>(i % side),
                       static_cast<double>(i / side)};
    s.expiry_ms = expiry;
    sensors.push_back(s);
  }
  return sensors;
}

/// Small fanout + small leaves: a deep tree from a small catalog, so
/// shard levels 1 and 2 both exist and stripe contention is real.
inline ColrTree::Options StressTreeOptions(size_t capacity,
                                           int shard_level = -1) {
  ColrTree::Options topts;
  topts.cluster.fanout = 4;
  topts.cluster.leaf_capacity = 8;
  topts.t_max_ms = 4 * kMsPerMinute;
  topts.slot_delta_ms = kMsPerMinute;
  topts.cache_capacity = capacity;
  topts.writer_shard_level = shard_level;
  return topts;
}

inline Reading StressReading(const std::vector<SensorInfo>& sensors,
                             SensorId id, TimeMs t, double value) {
  Reading r;
  r.sensor = id;
  r.timestamp = t;
  r.expiry = t + sensors[static_cast<size_t>(id)].expiry_ms;
  r.value = value;
  return r;
}

/// Deterministic value for (seed, sensor, round): the same seed always
/// replays the same insert stream regardless of thread interleaving.
inline double StressValue(uint64_t seed, SensorId sensor, int round) {
  const uint64_t ordinal =
      (static_cast<uint64_t>(sensor) << 24) ^ static_cast<uint64_t>(round);
  return static_cast<double>(DeriveSeed(seed, ordinal) % 997);
}

/// Spawn n threads running fn(thread_index) and join them all.
template <typename Fn>
void RunThreads(int n, Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
}

struct WriterRollerOptions {
  int writers = 4;
  int rounds = 120;
  /// How far the clock moves per roller tick (free-running) or per
  /// round (lockstep).
  TimeMs step_ms = 20 * kMsPerSecond;
  /// false: writers free-run against a roller thread that advances the
  /// window as fast as it can (maximum interleaving — the TSan mode).
  /// The roller starts once every writer has finished its first round,
  /// so the whole catalog is cached at t = 0 before any reading can
  /// expire: a slowed build (TSan) cannot let the roller run so far
  /// ahead that the cache never reaches its capacity.
  /// true: a std::barrier paces every round — writer 0 advances to
  /// round * step_ms, the barrier opens, all writers insert that
  /// round's partition, and a second barrier closes the round. Every
  /// reading's timestamp and every AdvanceTo target is then a pure
  /// function of (seed, round): the quiescent state is comparable
  /// across runs and across writer_shard_level values.
  bool lockstep = false;
  /// Every k-th sensor gets a TouchCached after its insert (LRF
  /// traffic); 0 disables.
  int touch_every = 0;
  /// Seeds StressValue's insert stream. Pass StressSeed(...).
  uint64_t seed = 0x5EEDull;
  /// Optional concurrent readers: each runs fn(tree, published_now,
  /// reader_index, iteration) in a loop until the writers finish, and
  /// the returned values accumulate into a sink that is asserted on so
  /// the loop cannot be elided.
  int readers = 0;
  std::function<uint64_t(ColrTree&, TimeMs, int, uint64_t)> reader_fn;
};

struct WriterRollerOutcome {
  int64_t inserts = 0;
  /// The last AdvanceTo target; quiesce past it before fingerprinting.
  TimeMs final_advance_ms = 0;
};

/// The canonical writer/roller stress: opts.writers threads own
/// disjoint sensor partitions (sensor i belongs to writer i %
/// writers) and insert one reading per sensor per round while the
/// window advances around them. See WriterRollerOptions::lockstep for
/// the two pacing modes.
inline WriterRollerOutcome RunWriterRollerStress(
    ColrTree& tree, const std::vector<SensorInfo>& sensors,
    const WriterRollerOptions& opts) {
  WriterRollerOutcome out;
  std::atomic<TimeMs> now{0};
  std::atomic<bool> done{false};
  std::atomic<int64_t> inserts{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < opts.readers; ++r) {
    readers.emplace_back([&, r] {
      uint64_t sink = 0;
      uint64_t iter = 0;
      while (!done.load(std::memory_order_acquire)) {
        const TimeMs t = now.load(std::memory_order_acquire);
        sink += opts.reader_fn(tree, t, r, iter++);
      }
      // Keep the loop's results observable so it cannot be elided.
      EXPECT_GE(sink, 0u);
    });
  }

  const auto insert_round = [&](int w, int round, TimeMs t) {
    int64_t n = 0;
    for (size_t i = static_cast<size_t>(w); i < sensors.size();
         i += static_cast<size_t>(opts.writers)) {
      const SensorId id = static_cast<SensorId>(i);
      tree.InsertReading(
          StressReading(sensors, id, t, StressValue(opts.seed, id, round)));
      ++n;
      if (opts.touch_every > 0 && i % static_cast<size_t>(opts.touch_every) == 0) {
        tree.TouchCached({id});
      }
    }
    inserts.fetch_add(n, std::memory_order_relaxed);
  };

  if (opts.lockstep) {
    std::barrier sync(opts.writers);
    RunThreads(opts.writers, [&](int w) {
      for (int round = 0; round < opts.rounds; ++round) {
        const TimeMs t = static_cast<TimeMs>(round) * opts.step_ms;
        if (w == 0) {
          now.store(t, std::memory_order_release);
          tree.AdvanceTo(t);
        }
        sync.arrive_and_wait();  // the window is at t before anyone writes
        insert_round(w, round, t);
        sync.arrive_and_wait();  // the round is fully written before t+1
      }
    });
    out.final_advance_ms =
        static_cast<TimeMs>(opts.rounds > 0 ? opts.rounds - 1 : 0) *
        opts.step_ms;
  } else {
    std::atomic<TimeMs> last_tick{0};
    std::atomic<int> first_rounds_done{0};
    std::thread roller([&] {
      while (!done.load(std::memory_order_acquire) &&
             first_rounds_done.load(std::memory_order_acquire) <
                 opts.writers) {
        std::this_thread::yield();
      }
      TimeMs tick = 0;
      while (!done.load(std::memory_order_acquire)) {
        tick += opts.step_ms;
        now.store(tick, std::memory_order_release);
        tree.AdvanceTo(tick);
        last_tick.store(tick, std::memory_order_release);
        std::this_thread::yield();
      }
    });
    RunThreads(opts.writers, [&](int w) {
      for (int round = 0; round < opts.rounds; ++round) {
        insert_round(w, round, now.load(std::memory_order_acquire));
        if (round == 0) {
          first_rounds_done.fetch_add(1, std::memory_order_release);
        }
      }
    });
    done.store(true, std::memory_order_release);
    roller.join();
    out.final_advance_ms = last_tick.load(std::memory_order_acquire);
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  out.inserts = inserts.load(std::memory_order_relaxed);
  return out;
}

/// The query-stream side of the stress suite: a Live-Local workload,
/// network, tree and engine wired to one frozen SimClock, plus the
/// deterministic per-(thread, ordinal) query mix the concurrency
/// tests replay against it.
struct EngineStressRig {
  LiveLocalWorkload workload;
  SimClock clock;
  std::unique_ptr<SensorNetwork> network;
  std::unique_ptr<ColrTree> tree;
  std::unique_ptr<ColrEngine> engine;

  explicit EngineStressRig(size_t cache_capacity,
                           bool track_availability = false,
                           int num_sensors = 1200) {
    LiveLocalOptions wopts;
    wopts.num_sensors = num_sensors;
    wopts.num_queries = 64;
    wopts.num_cities = 8;
    wopts.extent = Rect::FromCorners(0, 0, 100, 100);
    wopts.duration_ms = 20 * kMsPerMinute;
    wopts.seed = 0xBEEFull;
    workload = GenerateLiveLocal(wopts);

    network = std::make_unique<SensorNetwork>(workload.sensors, &clock);
    network->set_value_fn(MakeRestaurantWaitingTimeFn());

    ColrTree::Options topts;
    topts.cluster.fanout = 4;
    topts.cluster.leaf_capacity = 16;
    topts.t_max_ms = wopts.expiry_max_ms;
    topts.slot_delta_ms = wopts.expiry_max_ms / 4;
    topts.cache_capacity = cache_capacity;
    tree = std::make_unique<ColrTree>(workload.sensors, topts);

    ColrEngine::Options eopts;
    eopts.mode = ColrEngine::Mode::kColr;
    eopts.track_availability = track_availability;
    eopts.availability_refresh_ms = kMsPerMinute;
    engine = std::make_unique<ColrEngine>(tree.get(), network.get(), eopts);

    // Freeze the clock at a fixed point so no reading expires or is
    // expunged while the threads run.
    clock.SetMs(10 * kMsPerMinute);
  }

  /// A deterministic mixed viewport query for (thread, ordinal).
  Query MakeQuery(int thread, int i) const {
    const auto& rec =
        workload.queries[(thread * 17 + i * 5) % workload.queries.size()];
    Query q;
    q.region = QueryRegion::FromRect(rec.region);
    q.staleness_ms = 5 * kMsPerMinute;
    q.sample_size = (i % 3 == 0) ? 0 : 25;  // mix exact and sampled
    q.cluster_level = 2;
    return q;
  }
};

/// Runs `threads` concurrent query streams of `per_thread` queries
/// each against the rig's engine, with the per-stream RNG seeded from
/// the global query ordinal. per_result(thread, i, result) runs on
/// the worker thread — synchronize or use per-thread storage.
template <typename Fn>
void RunQueryStreams(EngineStressRig& rig, int threads, int per_thread,
                     Fn&& per_result) {
  RunThreads(threads, [&](int t) {
    for (int i = 0; i < per_thread; ++i) {
      ExecutionContext ctx(rig.engine->QuerySeed(
          static_cast<uint64_t>(t) * per_thread + i));
      const QueryResult r = rig.engine->Execute(rig.MakeQuery(t, i), ctx);
      per_result(t, i, r);
    }
  });
}

}  // namespace colr::testing

#endif  // COLR_TESTS_CONCURRENT_HARNESS_H_
