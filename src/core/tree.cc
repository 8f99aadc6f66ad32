#include "core/tree.h"

#include <algorithm>
#include <cmath>

namespace colr {

namespace {

TimeMs ResolveTmax(const ColrTree::Options& options,
                   const std::vector<SensorInfo>& sensors) {
  TimeMs t_max = options.t_max_ms;
  if (t_max <= 0) {
    for (const SensorInfo& s : sensors) {
      t_max = std::max(t_max, s.expiry_ms);
    }
    if (t_max <= 0) t_max = kMsPerMinute;
  }
  return t_max;
}

SlotScheme MakeScheme(const ColrTree::Options& options, TimeMs t_max) {
  TimeMs delta = options.slot_delta_ms;
  if (delta <= 0) delta = std::max<TimeMs>(1, t_max / 4);
  const TimeMs margin =
      options.stale_margin_ms >= 0 ? options.stale_margin_ms : t_max;
  return SlotScheme(delta, t_max + margin);
}

}  // namespace

ColrTree::ColrTree(std::vector<SensorInfo> sensors, Options options)
    : options_(options),
      sensors_(std::move(sensors)),
      t_max_ms_(ResolveTmax(options, sensors_)),
      scheme_(MakeScheme(options, t_max_ms_)) {
  if (options_.sync_stats) SyncStatsRegistry::Enable();
  std::vector<Point> points;
  points.reserve(sensors_.size());
  for (const SensorInfo& s : sensors_) points.push_back(s.location);

  // The cluster build emits a pointer-style DFS-preorder tree; the
  // arena renumbers it into the flat breadth-ordered layout. The
  // item_order permutation is a property of the clustering, not of the
  // node numbering, so item ranges carry over verbatim.
  ClusterTree ct = BuildClusterTree(points, options_.cluster);
  arena_ = NodeArena(ct);
  root_ = arena_.root();
  height_ = arena_.height();
  sensor_order_.reserve(ct.item_order.size());
  for (int idx : ct.item_order) {
    sensor_order_.push_back(static_cast<SensorId>(idx));
  }
  leaf_of_sensor_.assign(sensors_.size(), -1);

  const size_t num_nodes = arena_.size();
  caches_.resize(num_nodes);
  availability_ = std::vector<AtomicDouble>(num_nodes);
  leaf_tables_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    ArenaNodeRecord& n = arena_.mutable_record(static_cast<int>(i));
    caches_[i].Resize(scheme_.num_slots());

    double avail_sum = 0.0;
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const SensorInfo& s = sensors_[sensor_order_[j]];
      avail_sum += s.availability;
      n.max_expiry_ms = std::max(n.max_expiry_ms, s.expiry_ms);
    }
    availability_[i] = n.Weight() > 0 ? avail_sum / n.Weight() : 1.0;

    if (n.IsLeaf()) {
      for (int j = n.item_begin; j < n.item_end; ++j) {
        leaf_of_sensor_[sensor_order_[j]] = static_cast<int>(i);
      }
    }
  }

  // Resolve the writer-sharding level against the built hierarchy.
  // Auto picks level 1 (the root's children): the root region then
  // spans just two nodes per path, maximizing the portion of the
  // leaf-to-root propagation that disjoint shards run concurrently.
  const int max_level = std::max(0, height_ - 1);
  shard_level_ = options_.writer_shard_level >= 0
                     ? std::min(options_.writer_shard_level, max_level)
                     : std::min(1, max_level);

  // One reading store per shard, all stamping fetches from one shared
  // sequence so the cross-shard eviction order stays globally exact.
  // Store capacities are unbounded; the tree enforces
  // options_.cache_capacity across all of them.
  store_index_of_node_.assign(arena_.size(), -1);
  for (size_t i = 0; i < arena_.size(); ++i) {
    if (!arena_.record(static_cast<int>(i)).IsLeaf()) continue;
    const int shard = ShardOf(static_cast<int>(i));
    if (store_index_of_node_[shard] < 0) {
      store_index_of_node_[shard] =
          static_cast<int>(shard_node_of_store_.size());
      shard_node_of_store_.push_back(shard);
    }
  }
  stores_ = std::vector<ReadingStore>(shard_node_of_store_.size());
  for (ReadingStore& store : stores_) store.set_sequence_source(&fetch_seq_);
}

int ColrTree::CountSensorsInRegion(const Rect& region) const {
  if (root_ < 0) return 0;
  int count = 0;
  std::vector<int> stack{root_};
  std::vector<int> hits(static_cast<size_t>(arena_.max_fanout()));
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const Node& n = arena_.record(id);
    if (!n.bbox.Intersects(region)) continue;
    if (region.Contains(n.bbox)) {
      count += n.Weight();
      continue;
    }
    if (n.IsLeaf()) {
      for (int j = n.item_begin; j < n.item_end; ++j) {
        if (region.Contains(sensors_[sensor_order_[j]].location)) ++count;
      }
    } else {
      // Vectorized child-MBR scan over the node's contiguous child
      // block; only overlapping children are pushed.
      const int k = arena_.OverlapChildren(id, region, hits.data());
      for (int t = 0; t < k; ++t) stack.push_back(hits[t]);
    }
  }
  return count;
}

int ColrTree::LevelForClusterDistance(double distance) const {
  if (height_ <= 1) return 0;
  // Mean bbox diagonal per level, coarse to fine. Arena ids are
  // breadth-ordered, so this pass accumulates each level's diagonals
  // in the same left-to-right node order as the pointer layout did —
  // the per-level floating-point sums are bit-identical.
  std::vector<double> sum(height_, 0.0);
  std::vector<int> count(height_, 0);
  for (size_t i = 0; i < arena_.size(); ++i) {
    const Node& n = arena_.record(static_cast<int>(i));
    const double dx = n.bbox.Width();
    const double dy = n.bbox.Height();
    sum[n.level] += std::sqrt(dx * dx + dy * dy);
    ++count[n.level];
  }
  for (int level = 0; level < height_; ++level) {
    if (count[level] == 0) continue;
    if (sum[level] / count[level] <= distance) return level;
  }
  return height_ - 1;
}

void ColrTree::RefreshAvailability(const std::vector<double>& estimates) {
  for (size_t i = 0; i < arena_.size(); ++i) {
    const Node& n = arena_.record(static_cast<int>(i));
    double total = 0.0;
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const SensorId sid = sensor_order_[j];
      total += sid < estimates.size() ? estimates[sid]
                                      : sensors_[sid].availability;
    }
    availability_[i] = n.Weight() > 0 ? total / n.Weight() : 1.0;
  }
}

std::vector<SensorId> ColrTree::SensorsUnderInRegion(
    int node_id, const Rect& region) const {
  const Node& n = arena_.record(node_id);
  std::vector<SensorId> out;
  out.reserve(n.Weight());
  const bool full = region.Contains(n.bbox);
  for (int j = n.item_begin; j < n.item_end; ++j) {
    const SensorId sid = sensor_order_[j];
    if (full || region.Contains(sensors_[sid].location)) {
      out.push_back(sid);
    }
  }
  return out;
}

void ColrTree::ExpungeAfterRoll() {
  // Caller holds the exclusive epoch: no writer, toucher or evictor
  // is active (they all hold the shared side), so the per-shard
  // stores can be walked without their shard locks. No aggregate
  // propagation: the expunged slots are outside the window, so their
  // ring positions lazily reset on reuse.
  size_t total = 0;
  for (ReadingStore& store : stores_) {
    const std::vector<Reading> expunged = store.ExpungeExpiredSlots(scheme_);
    total += expunged.size();
    for (const Reading& r : expunged) RemoveFromLeafCachedSet(r.sensor);
  }
  maintenance_.readings_expunged += static_cast<int64_t>(total);
  cached_total_.fetch_sub(total, std::memory_order_relaxed);
}

void ColrTree::RollWindowLocked(SlotId slot) {
  const int slid = scheme_.RollTo(slot);
  if (slid > 0) {
    ++maintenance_.rolls;
    maintenance_.slots_rolled += slid;
    ExpungeAfterRoll();
  }
}

void ColrTree::AdvanceTo(TimeMs now) {
  // The window covers [now - stale_margin, now + t_max]: newest slot
  // at now + t_max, the rest of the capacity keeping recent history.
  const SlotId needed = scheme_.SlotOf(now + t_max_ms_);
  // Lock-free fast path: the head only moves forward, so a stale read
  // at worst defers the roll to the next advance.
  if (needed <= scheme_.newest()) return;
  SyncTimedLock<EpochLatch> epoch_lock(epoch_latch_,
                                       SyncSite::kEpochExclusive);
  RollWindowLocked(needed);
}

void ColrTree::TouchCached(const std::vector<SensorId>& sensors) {
  if (sensors.empty()) return;
  // Store mutations follow the writer protocol: shared epoch (so
  // rolls/expunges see a quiesced store) + the sensor's shard lock.
  // One epoch pin covers the batch, and one shard lock covers each run
  // of sensors in the same shard (a query lists its sensors leaf by
  // leaf). Touches keep the given order, so the LRF sequence is the
  // one a sensor-at-a-time loop would produce.
  SyncTimedSharedLock<EpochLatch> epoch_lock(epoch_latch_,
                                             SyncSite::kEpochShared);
  const auto leaf_of = [&](SensorId sid) {
    return sid < sensors_.size() ? leaf_of_sensor_[sid] : -1;
  };
  size_t i = 0;
  while (i < sensors.size()) {
    const int leaf = leaf_of(sensors[i]);
    if (leaf < 0) {
      ++i;
      continue;
    }
    const int shard = ShardOf(leaf);
    SyncTimedLock<SharedMutex> shard_lock(shard_mutex_.For(shard),
                                          SyncSite::kShardWriter);
    ReadingStore& store = StoreForLeaf(leaf);
    for (; i < sensors.size(); ++i) {
      const int l = leaf_of(sensors[i]);
      if (l < 0) continue;
      if (ShardOf(l) != shard) break;
      store.Touch(sensors[i]);
    }
  }
}

size_t ColrTree::CachedReadingCount() const {
  return cached_total_.load(std::memory_order_acquire);
}

ColrTree::MaintenanceCounters ColrTree::MaintenanceSnapshot() const {
  MaintenanceCounters snap = maintenance_;
  snap.sync = SyncStatsRegistry::Instance().Snapshot();
  return snap;
}

std::vector<ColrTree::ShardOccupancy> ColrTree::ShardOccupancies() const {
  std::vector<ShardOccupancy> out;
  out.reserve(stores_.size());
  // Shared epoch: expunges walk the stores without shard locks under
  // the exclusive side, so the stripe alone would not exclude them.
  SyncTimedSharedLock<EpochLatch> epoch_lock(epoch_latch_,
                                             SyncSite::kEpochShared);
  for (size_t s = 0; s < stores_.size(); ++s) {
    SyncTimedSharedLock<SharedMutex> shard_lock(
        shard_mutex_.For(shard_node_of_store_[s]), SyncSite::kShardWriter);
    out.push_back({shard_node_of_store_[s], stores_[s].size(),
                   stores_[s].OccupiedSlots()});
  }
  return out;
}

void ColrTree::InsertReading(const Reading& reading) {
  if (reading.sensor >= sensors_.size()) return;
  const SlotId slot = scheme_.SlotOf(reading.expiry);

  if (slot > scheme_.newest()) {
    // Roll trigger: the reading's expiry lies beyond the newest slot,
    // so the window must slide first. Rolls take the exclusive epoch
    // (no writer holds its shared side), keeping the expunge cascade
    // serialized exactly as before. Rare: at most one insert per slot
    // width pays this.
    SyncTimedLock<EpochLatch> epoch_lock(epoch_latch_,
                                         SyncSite::kEpochExclusive);
    RollWindowLocked(slot);
  }

  // Shared epoch: the window head is frozen for the rest of the
  // insert (rolls need the exclusive side), so every InWindow /
  // oldest() test below is stable.
  SyncTimedSharedLock<EpochLatch> epoch_lock(epoch_latch_,
                                             SyncSite::kEpochShared);
  if (slot < scheme_.oldest()) {
    // Late arrival: the reading's expiry slot slid out of the window
    // before this insert pinned the epoch (the roll above only moves
    // the window forward). Storing it would place a dead reading in
    // the store, and propagating it would re-tag ring positions that
    // in-window slots own. Drop it and count it.
    ++maintenance_.late_readings_dropped;
    return;
  }
  const int leaf = leaf_of_sensor_[reading.sensor];
  if (leaf < 0) return;

  {
    // All cache mutation below the root region happens under this
    // leaf's shard lock; inserts into other shards proceed in
    // parallel.
    SyncTimedLock<SharedMutex> shard_lock(
        shard_mutex_.For(ShardOf(leaf)), SyncSite::kShardWriter);

    // The shard's own store needs no further lock — this shard lock
    // serializes all its mutators. Its content may lead the aggregates
    // within this shard-locked region: recomputes read the
    // leaf-resident table, and eviction re-resolves its candidate
    // under this shard's lock.
    ReadingStore::InsertOutcome outcome =
        StoreForLeaf(leaf).InsertWithoutEviction(scheme_, reading);
    if (!outcome.replaced) {
      cached_total_.fetch_add(1, std::memory_order_release);
    }

    // Replacement: remove the old reading from the leaf table and the
    // aggregates *before* the new one lands in either, so that a
    // min/max recompute triggered by the removal never observes the
    // new value.
    if (outcome.replaced) {
      {
        SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(leaf),
                                                   SyncSite::kNodeStripe);
        leaf_tables_[static_cast<size_t>(leaf)].cached_readings.erase(
            reading.sensor);
      }
      const SlotId old_slot = scheme_.SlotOf(outcome.old_reading.expiry);
      if (scheme_.InWindow(old_slot)) {
        PropagateRemove(leaf, old_slot, outcome.old_reading.value);
      }
    }

    {
      SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(leaf),
                                                 SyncSite::kNodeStripe);
      LeafCacheTable& table = leaf_tables_[static_cast<size_t>(leaf)];
      table.cached_readings[reading.sensor] = reading;
      if (!outcome.replaced) {
        table.cached_sensors.push_back(reading.sensor);
      }
    }
    PropagateAdd(leaf, slot, reading.value);
  }

  // Capacity enforcement runs after our own shard lock is released:
  // the victim may live in any shard, and its removal must be done
  // under *that* shard's lock (one shard stripe at a time, so shard
  // acquisition can never deadlock).
  EnforceCacheCapacity(reading.sensor);
}

void ColrTree::EnforceCacheCapacity(SensorId protect) {
  const size_t capacity = options_.cache_capacity;
  if (capacity == 0) return;
  // Lock-free fast path. cached_total_ already reflects this thread's
  // own insert; if some concurrent insert pushes the cache over
  // capacity after this read, that writer's own enforcement pass sees
  // the overshoot — at quiescence the last mutation's count has been
  // observed by the thread that made it, so the constraint holds.
  while (cached_total_.load(std::memory_order_acquire) > capacity) {
    // Peek phase: the global least-recently-fetched entry in the
    // oldest occupied slot is the (slot, seq)-minimum over the
    // per-shard candidates, because every store stamps fetches from
    // the shared sequence. One shard stripe held at a time (shared),
    // so the scan cannot deadlock with writers or other evictors.
    std::optional<ReadingStore::EvictionCandidate> best;
    size_t best_store = 0;
    for (size_t s = 0; s < stores_.size(); ++s) {
      SyncTimedSharedLock<SharedMutex> peek_lock(
          shard_mutex_.For(shard_node_of_store_[s]), SyncSite::kShardWriter);
      std::optional<ReadingStore::EvictionCandidate> cand =
          stores_[s].PeekEvictionCandidateInfo(protect);
      if (cand && (!best || cand->slot < best->slot ||
                   (cand->slot == best->slot && cand->seq < best->seq))) {
        best = cand;
        best_store = s;
      }
    }
    if (!best) return;  // only `protect` remains cached
    // Evict under the victim's shard lock: the erase and the aggregate
    // undo must be atomic with respect to that shard's own writers,
    // whose slot recomputes read the leaf tables and would otherwise
    // observe the erase before the undo (double-removing the victim's
    // value). Re-resolve locally under the lock; checking *global*
    // minimality again would need other shards' locks (deadlock), and
    // local re-resolution suffices: if the shard still offers the same
    // sensor, erasing it keeps the cache moving toward capacity.
    SyncTimedLock<SharedMutex> shard_lock(
        shard_mutex_.For(shard_node_of_store_[best_store]),
                         SyncSite::kShardWriter);
    if (cached_total_.load(std::memory_order_acquire) <= capacity) return;
    std::optional<ReadingStore::EvictionCandidate> cand =
        stores_[best_store].PeekEvictionCandidateInfo(protect);
    if (!cand || cand->reading.sensor != best->reading.sensor) {
      continue;  // the shard moved on since the peek; rescan
    }
    const Reading victim = cand->reading;
    stores_[best_store].Erase(victim.sensor);
    cached_total_.fetch_sub(1, std::memory_order_release);
    ++maintenance_.readings_evicted;
    RemoveFromLeafCachedSet(victim.sensor);
    const int vleaf = leaf_of_sensor_[victim.sensor];
    const SlotId vslot = scheme_.SlotOf(victim.expiry);
    if (vleaf >= 0 && scheme_.InWindow(vslot)) {
      PropagateRemove(vleaf, vslot, victim.value);
    }
  }
}

void ColrTree::PropagateAdd(int leaf_id, SlotId slot, double value) {
  int n = leaf_id;
  for (; n >= 0 && arena_.record(n).level > shard_level_;
       n = arena_.record(n).parent) {
    SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(n),
                                               SyncSite::kNodeStripe);
    caches_[static_cast<size_t>(n)].Add(scheme_, slot, value);
  }
  // Root region: the shard node and its ancestors are shared by every
  // shard, so this short tail (at most shard_level_ + 1 ring updates)
  // merges under root_mutex_.
  SyncTimedLock<SpinMutex> root_lock(root_mutex_, SyncSite::kRootSpin);
  for (; n >= 0; n = arena_.record(n).parent) {
    SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(n),
                                               SyncSite::kNodeStripe);
    caches_[static_cast<size_t>(n)].Add(scheme_, slot, value);
  }
}

Aggregate ColrTree::LeafSlotAggregate(int leaf_id, SlotId slot) const {
  // Reads the leaf-resident table, not the store: the gather runs
  // entirely under this leaf's stripe (whose mutators all hold the
  // caller's shard lock), keeping the recompute cascade off the
  // global store lock. Iterate in cached_sensors order so the
  // floating-point accumulation order matches the sequential build.
  Aggregate agg;
  SyncTimedSharedLock<SharedMutex> node_lock(node_mutex_.For(leaf_id),
                                                   SyncSite::kNodeStripe);
  const LeafCacheTable& table = leaf_tables_[static_cast<size_t>(leaf_id)];
  for (SensorId sid : table.cached_sensors) {
    auto it = table.cached_readings.find(sid);
    if (it != table.cached_readings.end() &&
        scheme_.SlotOf(it->second.expiry) == slot) {
      agg.Add(it->second.value);
    }
  }
  return agg;
}

void ColrTree::RecomputeSlotFromChildren(int node_id, SlotId slot) {
  ++maintenance_.slot_recomputes;
  const Node& n = arena_.record(node_id);
  AggregateSlotCache& own_cache = caches_[static_cast<size_t>(node_id)];
  // The caller's lock domain already makes the child snapshot stable:
  // below the shard node every mutator of the children holds this
  // shard's lock; at and above it, root_mutex_. The version-tag
  // validation is defense in depth — if any interleaving slips a
  // concurrent mutation of this slot between the snapshot and the
  // overwrite, the Set is abandoned and the gather retried instead of
  // silently losing that writer's delta.
  for (;;) {
    uint64_t version;
    {
      SyncTimedSharedLock<SharedMutex> node_lock(node_mutex_.For(node_id),
                                                       SyncSite::kNodeStripe);
      version = own_cache.SlotVersion(scheme_, slot);
    }
    Aggregate agg;
    if (n.IsLeaf()) {
      agg = LeafSlotAggregate(node_id, slot);
    } else {
      // The child block is a contiguous run of arena ids, so this
      // gather is a strided scan over consecutive AggregateSlotCache
      // objects in caches_ — no pointer chasing between children.
      const int child_end = n.child_begin + n.child_count;
      for (int c = n.child_begin; c < child_end; ++c) {
        SyncTimedSharedLock<SharedMutex> child_lock(
            node_mutex_.For(c), SyncSite::kNodeStripe);
        agg.Merge(caches_[static_cast<size_t>(c)].Get(scheme_, slot));
      }
    }
    {
      SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(node_id),
                                                 SyncSite::kNodeStripe);
      if (own_cache.SlotVersion(scheme_, slot) == version) {
        own_cache.Set(scheme_, slot, agg);
        return;
      }
    }
    ++maintenance_.slot_recompute_retries;
  }
}

void ColrTree::RemoveSlotValueAt(int node_id, SlotId slot, double value) {
  bool invertible;
  {
    SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(node_id),
                                         SyncSite::kNodeStripe);
    invertible =
        caches_[static_cast<size_t>(node_id)].Remove(scheme_, slot, value);
  }
  if (!invertible) {
    // The removal hit the slot's min/max: the decrement is not
    // invertible (§IV-B), recompute the slot bottom-up from children
    // (the slot-update trigger cascade).
    RecomputeSlotFromChildren(node_id, slot);
  }
}

void ColrTree::PropagateRemove(int leaf_id, SlotId slot, double value) {
  int n = leaf_id;
  for (; n >= 0 && arena_.record(n).level > shard_level_;
       n = arena_.record(n).parent) {
    RemoveSlotValueAt(n, slot, value);
  }
  // Root region: same split as PropagateAdd. Holding root_mutex_ here
  // is also what makes the recompute sound — the children of any
  // root-region node are themselves mutated only under root_mutex_
  // (or, for the shard node's children, under this shard's lock,
  // which the caller already holds).
  SyncTimedLock<SpinMutex> root_lock(root_mutex_, SyncSite::kRootSpin);
  for (; n >= 0; n = arena_.record(n).parent) {
    RemoveSlotValueAt(n, slot, value);
  }
}

void ColrTree::RemoveFromLeafCachedSet(SensorId sensor) {
  const int leaf = leaf_of_sensor_[sensor];
  if (leaf < 0) return;
  SyncTimedLock<SharedMutex> node_lock(node_mutex_.For(leaf),
                                             SyncSite::kNodeStripe);
  LeafCacheTable& table = leaf_tables_[static_cast<size_t>(leaf)];
  table.cached_readings.erase(sensor);
  auto& set = table.cached_sensors;
  for (size_t i = 0; i < set.size(); ++i) {
    if (set[i] == sensor) {
      set[i] = set.back();
      set.pop_back();
      return;
    }
  }
}

SlotId ColrTree::QuerySlot(TimeMs now, TimeMs staleness_ms) const {
  // The paper's lookup rule (§IV-A): hash the freshness bound
  // timestamp; slots strictly younger hold readings whose expiry lies
  // beyond the bound, i.e., readings that were still valid within the
  // user's staleness window.
  return scheme_.SlotOf(now - staleness_ms);
}

ColrTree::CacheLookup ColrTree::LookupCache(int node_id, TimeMs now,
                                            TimeMs staleness_ms,
                                            const Rect* region_filter,
                                            FreshnessRule rule) const {
  const Node& n = arena_.record(node_id);
  CacheLookup out;
  if (n.IsLeaf()) {
    // Per-entry inspection: usable iff the reading was still valid
    // within the staleness window (expiry beyond the freshness
    // bound), either exactly (including entries in the query slot,
    // §IV-B leaf refinement) or slot-aligned.
    const SlotId qslot = QuerySlot(now, staleness_ms);
    SyncTimedSharedLock<SharedMutex> node_lock(node_mutex_.For(node_id),
                                                     SyncSite::kNodeStripe);
    const LeafCacheTable& table = leaf_tables_[static_cast<size_t>(node_id)];
    for (SensorId sid : table.cached_sensors) {
      auto it = table.cached_readings.find(sid);
      if (it == table.cached_readings.end()) continue;
      const Reading& r = it->second;
      if (rule == FreshnessRule::kExact) {
        if (!r.ValidAt(now - staleness_ms)) continue;
      } else {
        const SlotId slot = scheme_.SlotOf(r.expiry);
        if (slot <= qslot || !scheme_.InWindow(slot)) continue;
      }
      if (region_filter != nullptr &&
          !region_filter->Contains(sensors_[sid].location)) {
        continue;
      }
      out.agg.Add(r.value);
      out.used_sensors.push_back(sid);
      out.used_readings.push_back(r);
    }
    return out;
  }
  const SlotId qslot = QuerySlot(now, staleness_ms);
  SyncTimedSharedLock<SharedMutex> node_lock(node_mutex_.For(node_id),
                                                   SyncSite::kNodeStripe);
  out.agg = caches_[static_cast<size_t>(node_id)].QueryNewerThan(
      scheme_, qslot, &out.slots_merged);
  return out;
}

std::optional<Reading> ColrTree::CachedReading(SensorId sensor) const {
  if (sensor >= sensors_.size()) return std::nullopt;
  const int leaf = leaf_of_sensor_[sensor];
  if (leaf < 0) return std::nullopt;
  SyncTimedSharedLock<SharedMutex> node_lock(node_mutex_.For(leaf),
                                                   SyncSite::kNodeStripe);
  const auto& readings =
      leaf_tables_[static_cast<size_t>(leaf)].cached_readings;
  auto it = readings.find(sensor);
  if (it == readings.end()) return std::nullopt;
  return it->second;
}

bool ColrTree::CachedInNewerSlot(SensorId sensor, SlotId query_slot) const {
  if (sensor >= sensors_.size()) return false;
  const int leaf = leaf_of_sensor_[sensor];
  if (leaf < 0) return false;
  SyncTimedSharedLock<SharedMutex> node_lock(node_mutex_.For(leaf),
                                                   SyncSite::kNodeStripe);
  const auto& readings =
      leaf_tables_[static_cast<size_t>(leaf)].cached_readings;
  auto it = readings.find(sensor);
  if (it == readings.end()) return false;
  const SlotId slot = scheme_.SlotOf(it->second.expiry);
  return slot > query_slot && scheme_.InWindow(slot);
}

const Reading* ColrTree::StoredReadingLocked(SensorId sid) const {
  const int leaf = leaf_of_sensor_[sid];
  return leaf < 0 ? nullptr : StoreForLeaf(leaf).Get(sid);
}

Status ColrTree::CheckCacheConsistency() const {
  // For every node and every in-window slot, the cached aggregate must
  // equal the aggregate recomputed from raw cached readings under the
  // node. The exclusive epoch drains every in-flight writer (they all
  // hold the shared side), so the snapshot is coherent.
  SyncTimedLock<EpochLatch> epoch_lock(epoch_latch_,
                                       SyncSite::kEpochExclusive);
  // The leaf-resident reading tables must mirror the stores exactly:
  // same membership (via cached_sensors) and same reading per sensor.
  size_t leaf_total = 0;
  for (size_t id = 0; id < arena_.size(); ++id) {
    if (!arena_.record(static_cast<int>(id)).IsLeaf()) continue;
    const LeafCacheTable& table = leaf_tables_[id];
    if (table.cached_readings.size() != table.cached_sensors.size()) {
      return Status::Internal(
          "leaf reading table size diverges from cached-sensor set at "
          "leaf " +
          std::to_string(id));
    }
    leaf_total += table.cached_readings.size();
    for (SensorId sid : table.cached_sensors) {
      auto it = table.cached_readings.find(sid);
      const Reading* r = StoredReadingLocked(sid);
      if (it == table.cached_readings.end() || r == nullptr ||
          r->value != it->second.value || r->expiry != it->second.expiry) {
        return Status::Internal(
            "leaf reading table diverges from store at leaf " +
            std::to_string(id) + " sensor " + std::to_string(sid));
      }
    }
  }
  size_t store_total = 0;
  for (const ReadingStore& store : stores_) store_total += store.size();
  if (leaf_total != store_total ||
      store_total != cached_total_.load(std::memory_order_acquire)) {
    return Status::Internal(
        "store totals diverge from leaf tables or the cached count");
  }
  for (size_t id = 0; id < arena_.size(); ++id) {
    const Node& n = arena_.record(static_cast<int>(id));
    for (SlotId s = scheme_.oldest(); s <= scheme_.newest(); ++s) {
      Aggregate expected;
      for (int j = n.item_begin; j < n.item_end; ++j) {
        const Reading* r = StoredReadingLocked(sensor_order_[j]);
        if (r != nullptr && scheme_.SlotOf(r->expiry) == s) {
          expected.Add(r->value);
        }
      }
      const Aggregate& actual = caches_[id].Get(scheme_, s);
      if (expected.count != actual.count ||
          std::abs(expected.sum - actual.sum) > 1e-6 ||
          (expected.count > 0 &&
           (expected.min != actual.min || expected.max != actual.max))) {
        return Status::Internal("slot aggregate inconsistent at node " +
                                std::to_string(id) + " slot " +
                                std::to_string(s));
      }
    }
  }
  return Status::OK();
}

}  // namespace colr
