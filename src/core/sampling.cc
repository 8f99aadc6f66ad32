#include "core/sampling.h"

#include <algorithm>
#include <cmath>

#include "core/probe_scheduler.h"

namespace colr {

int ProbabilisticRound(double x, Rng& rng) {
  if (x <= 0.0) return 0;
  const double fl = std::floor(x);
  const double frac = x - fl;
  return static_cast<int>(fl) + (rng.Bernoulli(frac) ? 1 : 0);
}

namespace {

struct QueueEntry {
  double r = 0.0;  // target sample size assigned to this node
  int node = -1;
};

struct EntryLess {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return a.r < b.r;
  }
};

constexpr double kMinAvailability = 0.02;
constexpr double kMinTarget = 1e-9;

class Runner {
 public:
  Runner(const ColrTree& tree, const QueryRegion& region, TimeMs now,
         TimeMs staleness_ms, const LayeredSampler::Options& options,
         Rng& rng, const LayeredSampler::ProbeFn& probe)
      : tree_(tree),
        region_(region),
        now_(now),
        staleness_(staleness_ms),
        options_(options),
        rng_(rng),
        probe_(probe) {}

  LayeredSampler::Result Run() {
    if (tree_.root() < 0 || options_.target <= 0.0) return result_;
    const ColrTree::Node& root = tree_.node(tree_.root());
    if (!region_.Intersects(root.bbox)) return result_;

    if (IsTerminal(root)) {
      // Degenerate tree (leaf root) or a region covering everything
      // with a negative threshold: probe directly.
      ProcessTerminal(options_.target, tree_.root());
    } else {
      heap_.push_back(QueueEntry{options_.target, tree_.root()});
      while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), EntryLess{});
        QueueEntry entry = heap_.back();
        heap_.pop_back();
        if (entry.r < kMinTarget) continue;
        Expand(entry);
      }
    }
    CollectRound();
    return std::move(result_);
  }

 private:
  double Availability(int node_id) const {
    return std::max<double>(tree_.mean_availability(node_id),
                            kMinAvailability);
  }

  /// Terminal nodes: leaves (nothing below to descend into), or nodes
  /// strictly below the result threshold level T whose bounding box
  /// lies entirely inside the query region (§III-C lookup).
  bool IsTerminal(const ColrTree::Node& n) const {
    if (n.IsLeaf()) return true;
    return n.level > options_.terminal_level && region_.Contains(n.bbox);
  }

  void Expand(const QueueEntry& entry) {
    ++result_.nodes_traversed;
    ++result_.internal_nodes_traversed;

    // Weighted partitioning denominator: sum over relevant children of
    // w_i * Overlap(BB(i), A)  (Algorithm 1, lines 9/17).
    double denom = 0.0;
    for (int c : tree_.children(entry.node)) {
      const ColrTree::Node& child = tree_.node(c);
      if (!region_.Intersects(child.bbox)) continue;
      denom += child.Weight() * OverlapFraction(child.bbox, region_.bbox);
    }
    if (denom <= 0.0) return;

    double total_fetched = 0.0;
    for (int c : tree_.children(entry.node)) {
      const ColrTree::Node& child = tree_.node(c);
      if (!region_.Intersects(child.bbox)) continue;
      double share = entry.r * child.Weight() *
                     OverlapFraction(child.bbox, region_.bbox) / denom;
      // Probabilistic pruning of low-share subtrees ("the sampling
      // heuristic further reduces the nodes we consider traversing at
      // lower layers", §VI-A): a child allocated less than one
      // expected sample is visited with probability share/1 carrying
      // a boosted share of 1. The expected allocation — and hence
      // Theorem 1's E[sample] = R and Theorem 2's per-sensor
      // inclusion probability — is unchanged; only the variance grows
      // slightly, in exchange for far fewer node visits.
      constexpr double kMinShare = 1.0;
      if (share < kMinShare) {
        if (!rng_.Bernoulli(share / kMinShare)) {
          total_fetched += share;  // satisfied in expectation
          continue;
        }
        total_fetched += share - kMinShare;  // the boost is not a lack
        share = kMinShare;
      }
      if (IsTerminal(child)) {
        total_fetched += ProcessTerminal(share, c);
      } else {
        heap_.push_back(QueueEntry{share, c});
        std::push_heap(heap_.begin(), heap_.end(), EntryLess{});
        total_fetched += share;
      }
    }

    // REDISTRIBUTE (Algorithm 2): spread the shortfall over pending
    // nodes proportionally to their current targets. A uniform
    // positive scaling preserves the heap order.
    if (options_.redistribute && total_fetched < entry.r &&
        !heap_.empty()) {
      double pending = 0.0;
      for (const QueueEntry& e : heap_) pending += e.r;
      if (pending > kMinTarget) {
        const double factor = 1.0 + (entry.r - total_fetched) / pending;
        for (QueueEntry& e : heap_) e.r *= factor;
      }
    }
  }

  /// Probes every terminal's picked sensors in one batch and hands
  /// each terminal its readings. Deferring the probes past the descent
  /// changes no sampling decision: REDISTRIBUTE credits each terminal's
  /// expected contribution, never the readings it actually got.
  void CollectRound() {
    if (round_.empty()) return;
    const std::vector<Reading> readings = probe_(round_);
    const std::vector<uint32_t> owner =
        SplitRound(round_, round_ends_, readings);
    for (size_t i = 0; i < readings.size(); ++i) {
      result_.terminals[owner[i]].collected.push_back(readings[i]);
    }
  }

  /// Handles a terminal node: consult the cache, oversample, and pick
  /// the sensors to probe (into the query's round; see CollectRound).
  /// Returns the expected contribution credited against the parent's
  /// target: the cached readings plus the expected number of
  /// successful probes. Crediting the *fractional* expectation (not
  /// the rounded probe count) keeps REDISTRIBUTE from amplifying
  /// rounding noise — only genuine shortfall (holes, exhausted
  /// candidates) is redistributed, which is what preserves Theorem 1's
  /// E[sample] = R invariant.
  double ProcessTerminal(double share, int node_id) {
    const ColrTree::Node& n = tree_.node(node_id);
    ++result_.nodes_traversed;
    if (!n.IsLeaf()) ++result_.internal_nodes_traversed;

    LayeredSampler::Terminal t;
    t.node_id = node_id;
    t.target = share;

    const bool partial = !region_.Contains(n.bbox);
    if (options_.use_cache) {
      if (n.IsLeaf()) {
        Rect filter = region_.bbox;
        ColrTree::CacheLookup lookup = tree_.LookupCache(
            node_id, now_, staleness_, partial ? &filter : nullptr);
        // Polygon refinement for cached leaf readings (the lookup
        // copies used readings out under the store lock, so no store
        // pointers are dereferenced here).
        if (region_.polygon) {
          ColrTree::CacheLookup refined;
          for (size_t i = 0; i < lookup.used_sensors.size(); ++i) {
            const SensorId sid = lookup.used_sensors[i];
            if (region_.Contains(tree_.sensor(sid).location)) {
              refined.agg.Add(lookup.used_readings[i].value);
              refined.used_sensors.push_back(sid);
              refined.used_readings.push_back(lookup.used_readings[i]);
            }
          }
          lookup = std::move(refined);
        }
        t.cached_agg = lookup.agg;
        t.cached_count = lookup.agg.count;
        t.cached_sensors = std::move(lookup.used_sensors);
        t.cached_readings = std::move(lookup.used_readings);
      } else {
        ColrTree::CacheLookup lookup =
            tree_.LookupCache(node_id, now_, staleness_);
        t.cached_agg = lookup.agg;
        t.cached_count = lookup.agg.count;
        t.cached_slots_merged = lookup.slots_merged;
      }
      if (t.cached_count > 0) ++result_.cached_nodes_accessed;
    }

    // Probe target: share minus what the cache already covers
    // (line 9), scaled up by the node's historical availability
    // (lines 10-11; we apply the single per-path scale-up at the
    // probing node itself, where the availability estimate is most
    // local — see DESIGN.md).
    const double availability = Availability(node_id);
    const double need = share - static_cast<double>(t.cached_count);
    double scaled_need = need;
    if (options_.oversample && need > 0.0) {
      scaled_need = need / availability;
    }
    double credited_probes = 0.0;
    if (scaled_need > 0.0) {
      int k = ProbabilisticRound(scaled_need, rng_);
      std::vector<SensorId> candidates = ProbeCandidates(n, t);
      k = std::min<int>(k, static_cast<int>(candidates.size()));
      credited_probes =
          std::min(scaled_need, static_cast<double>(candidates.size()));
      if (k > 0) {
        for (uint64_t idx :
             rng_.SampleWithoutReplacement(candidates.size(), k)) {
          round_.push_back(candidates[idx]);
        }
        t.probes_attempted = k;
      }
    }

    // Expected contribution: with oversampling, each attempted probe
    // yields a reading with probability ~availability; without it,
    // attempts are credited as-is (the paper's line 13).
    const double fetched =
        static_cast<double>(t.cached_count) +
        credited_probes * (options_.oversample ? availability : 1.0);
    result_.terminals.push_back(std::move(t));
    round_ends_.push_back(round_.size());
    return fetched;
  }

  /// Sensors under the terminal that are inside the region and not
  /// already served by the cache.
  std::vector<SensorId> ProbeCandidates(const ColrTree::Node& n,
                                        const LayeredSampler::Terminal& t) {
    const bool partial = !region_.Contains(n.bbox) || region_.polygon;
    std::vector<SensorId> candidates;
    candidates.reserve(n.Weight());
    const SlotId qslot = tree_.QuerySlot(now_, staleness_);
    const auto& order = tree_.sensor_order();
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const SensorId sid = order[j];
      if (partial && !region_.Contains(tree_.sensor(sid).location)) {
        continue;
      }
      if (options_.use_cache) {
        if (n.IsLeaf()) {
          // Exclude the exact set the leaf lookup used.
          if (std::find(t.cached_sensors.begin(), t.cached_sensors.end(),
                        sid) != t.cached_sensors.end()) {
            continue;
          }
        } else {
          // Same slot rule the internal aggregate lookup used.
          if (tree_.CachedInNewerSlot(sid, qslot)) continue;
        }
      }
      candidates.push_back(sid);
    }
    return candidates;
  }

  const ColrTree& tree_;
  const QueryRegion& region_;
  const TimeMs now_;
  const TimeMs staleness_;
  const LayeredSampler::Options& options_;
  Rng& rng_;
  const LayeredSampler::ProbeFn& probe_;
  std::vector<QueueEntry> heap_;
  LayeredSampler::Result result_;
  /// The query's one probe round: every terminal's picked sensors back
  /// to back; terminal i's end at round_ends_[i]. Terminals cover
  /// disjoint subtrees, so the round's ids are unique.
  std::vector<SensorId> round_;
  std::vector<size_t> round_ends_;
};

}  // namespace

LayeredSampler::Result LayeredSampler::Run(
    const ColrTree& tree, const QueryRegion& region, TimeMs now,
    TimeMs staleness_ms, const Options& options, Rng& rng,
    const ProbeFn& probe) {
  Runner runner(tree, region, now, staleness_ms, options, rng, probe);
  return runner.Run();
}

}  // namespace colr
