#include "sensor/network.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace colr {

SensorNetwork::SensorNetwork(std::vector<SensorInfo> sensors,
                             const Clock* clock)
    : SensorNetwork(std::move(sensors), clock, Options()) {}

SensorNetwork::SensorNetwork(std::vector<SensorInfo> sensors,
                             const Clock* clock, Options options)
    : sensors_(std::move(sensors)),
      clock_(clock),
      options_(options),
      rng_(options.seed),
      per_sensor_probes_(sensors_.size()) {
  // Default value model: a deterministic hash of (sensor, time bucket)
  // so tests get stable but non-constant values.
  value_fn_ = [](const SensorInfo& s, TimeMs now) {
    const uint64_t h = (static_cast<uint64_t>(s.id) * 0x9E3779B97F4A7C15ull) ^
                       static_cast<uint64_t>(now / kMsPerMinute);
    return static_cast<double>(h % 1000) / 10.0;
  };
}

SensorNetwork::ProbeResult SensorNetwork::Probe(SensorId id) {
  ProbeResult result;
  if (id >= sensors_.size()) {
    result.success = false;
    result.latency_ms = 0;
    return result;
  }
  const SensorInfo& info = sensors_[id];
  ++counters_.probes;
  per_sensor_probes_[id].fetch_add(1, std::memory_order_relaxed);
  {
    // One critical section per probe covering both draws, so the
    // sequential draw order (success then latency) is exactly the
    // pre-concurrency stream.
    MutexLock lock(rng_mutex_, SyncSite::kNetworkRng);
    result.success = rng_.Bernoulli(info.availability);
    result.latency_ms = DrawLatency(result.success);
  }
  if (result.success) {
    ++counters_.successes;
    const TimeMs now = clock_->NowMs();
    result.reading = Reading{info.id, now, now + info.expiry_ms,
                             value_fn_(info, now)};
  }
  return result;
}

SensorNetwork::BatchResult SensorNetwork::ProbeBatch(
    const std::vector<SensorId>& ids) {
  BatchResult batch;
  batch.attempted = ids.size();
  ++counters_.batches;
  if (pool_ != nullptr && ids.size() >= options_.min_parallel_batch) {
    // Parallel collection: every probe is independent and writes its
    // own slot of `readings` (a failed probe leaves the slot's invalid
    // sensor id); compacting the failures out in place keeps the
    // sequential order without a second per-probe buffer.
    batch.readings.resize(ids.size());
    std::atomic<TimeMs> latency{0};
    const size_t grain = std::max<size_t>(
        4, ids.size() / (static_cast<size_t>(pool_->size()) * 4 + 1));
    pool_->ParallelFor(ids.size(), grain, [&](size_t begin, size_t end) {
      TimeMs chunk_latency = 0;
      for (size_t i = begin; i < end; ++i) {
        ProbeResult r = Probe(ids[i]);
        chunk_latency = std::max(chunk_latency, r.latency_ms);
        if (r.success) batch.readings[i] = r.reading;
      }
      TimeMs seen = latency.load();
      while (seen < chunk_latency &&
             !latency.compare_exchange_weak(seen, chunk_latency)) {
      }
    });
    batch.latency_ms = latency.load();
    batch.readings.erase(
        std::remove_if(batch.readings.begin(), batch.readings.end(),
                       [](const Reading& r) {
                         return r.sensor == kInvalidSensorId;
                       }),
        batch.readings.end());
  } else {
    batch.readings.reserve(ids.size());
    for (SensorId id : ids) {
      ProbeResult r = Probe(id);
      batch.latency_ms = std::max(batch.latency_ms, r.latency_ms);
      if (r.success) batch.readings.push_back(r.reading);
    }
  }
  if (options_.simulated_latency_scale > 0.0 && batch.latency_ms > 0) {
    // One sleep per batch (not per probe): the batch already runs its
    // probes in parallel, so its real-time cost is the max latency.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        static_cast<double>(batch.latency_ms) *
        options_.simulated_latency_scale));
  }
  return batch;
}

std::vector<uint32_t> SensorNetwork::per_sensor_probes() const {
  std::vector<uint32_t> out;
  out.reserve(per_sensor_probes_.size());
  for (const auto& c : per_sensor_probes_) {
    out.push_back(c.load(std::memory_order_relaxed));
  }
  return out;
}

void SensorNetwork::ResetCounters() {
  counters_.probes = 0;
  counters_.successes = 0;
  counters_.batches = 0;
  for (auto& c : per_sensor_probes_) {
    c.store(0, std::memory_order_relaxed);
  }
}

TimeMs SensorNetwork::DrawLatency(bool success) {
  if (!success) return options_.probe_timeout_ms;
  const double jitter =
      options_.probe_latency_jitter_ms > 0
          ? rng_.Exponential(1.0 / static_cast<double>(
                                       options_.probe_latency_jitter_ms))
          : 0.0;
  return options_.probe_latency_base_ms + static_cast<TimeMs>(jitter);
}

std::vector<SensorInfo> MakeUniformSensors(int n, const Rect& extent,
                                           TimeMs expiry_ms,
                                           double availability, Rng& rng) {
  std::vector<SensorInfo> sensors;
  sensors.reserve(n);
  for (int i = 0; i < n; ++i) {
    SensorInfo s;
    s.id = static_cast<SensorId>(i);
    s.location = {rng.Uniform(extent.min_x, extent.max_x),
                  rng.Uniform(extent.min_y, extent.max_y)};
    s.expiry_ms = expiry_ms;
    s.availability = availability;
    sensors.push_back(s);
  }
  return sensors;
}

}  // namespace colr
