#ifndef COLR_NET_SERVER_H_
#define COLR_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "net/transport.h"
#include "net/wire.h"
#include "portal/portal.h"

namespace colr::net {

/// The portal behind a wire (DESIGN.md §9): accepts transport
/// connections, decodes length-prefixed query frames, and dispatches
/// each query onto the shared ThreadPool through
/// SensorPortal::ExecuteOne — the same thread-safe path
/// ExecuteConcurrent uses, so the engine/probe-scheduler stack behind
/// the server is exactly the one the in-process benchmarks measure.
///
/// Threading model (the "threading model at the socket boundary" of
/// DESIGN.md §9): one accept thread plus one reader thread per
/// connection; each decoded request is executed on the pool and its
/// reply written back before the reader picks up the next frame.
/// Requests on one connection are therefore strictly serial — reply
/// order equals request order by construction — and cross-connection
/// concurrency is bounded by the pool, not the connection count.
/// Admission control (Options::max_inflight) sheds work *before* it
/// queues; the queue deadline (Options::request_timeout_ms) expires
/// work that waited too long for a worker without executing it.
class PortalServer {
 public:
  struct Options {
    /// Frame-size bound enforced on every connection.
    size_t max_frame_bytes = kDefaultMaxFramePayload;
    /// Admitted-but-unfinished request bound across all connections;
    /// a request arriving at the bound is answered WireStatus::kShed
    /// immediately. 0 = unbounded.
    int max_inflight = 0;
    /// Queue deadline: a request whose execution has not *started*
    /// within this many clock ms of its arrival is answered
    /// WireStatus::kTimeout without executing (the client gave up on
    /// that tail anyway; executing it would only dig the queue
    /// deeper). 0 = none.
    TimeMs request_timeout_ms = 0;
    /// Clock for arrival/queue-deadline stamps. Tests inject a
    /// SimClock to make timeout paths deterministic; nullptr = a
    /// process-wide WallClock.
    const Clock* clock = nullptr;
    /// Base seed for per-query ExecutionContexts (mixed with a global
    /// request ordinal via DeriveSeed). 0 = inherit the portal's
    /// default collection engine seed, keeping server-side query
    /// randomness on the same seed axis as the engine's own streams.
    uint64_t seed = 0;
  };

  /// Monotonic counters plus the connections_active gauge. The gauge
  /// returns to zero when every connection handler has exited — the
  /// "no leaked connection state" observable the failure-path tests
  /// pin.
  struct Counters {
    AtomicCounter<int64_t> connections_accepted{0};
    AtomicCounter<int64_t> connections_active{0};
    AtomicCounter<int64_t> queries_ok{0};
    AtomicCounter<int64_t> query_errors{0};
    AtomicCounter<int64_t> shed{0};
    AtomicCounter<int64_t> timeouts{0};
    /// Undecodable, oversized or unexpected frames (each closes its
    /// connection: a corrupt length-prefixed stream cannot resync).
    AtomicCounter<int64_t> bad_frames{0};
    /// Replies that could not be written (client disconnected
    /// mid-reply).
    AtomicCounter<int64_t> write_errors{0};
  };

  PortalServer(portal::SensorPortal* portal, ThreadPool* pool)
      : PortalServer(portal, pool, Options()) {}
  PortalServer(portal::SensorPortal* portal, ThreadPool* pool,
               Options options);
  ~PortalServer();

  PortalServer(const PortalServer&) = delete;
  PortalServer& operator=(const PortalServer&) = delete;

  /// Takes ownership of the listener and starts accepting. Call once.
  Status Start(std::unique_ptr<Listener> listener);

  /// Closes the listener and every connection, then joins all server
  /// threads. Idempotent; also run by the destructor. In-flight
  /// queries finish on the pool but their replies fail to write
  /// (counted in write_errors).
  void Stop();

  const Counters& counters() const { return counters_; }

  /// Requests admitted and not yet answered.
  int64_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }

 private:
  struct ConnEntry {
    std::unique_ptr<Connection> conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  QueryReply HandleRequest(const QueryRequest& request);
  /// Joins and drops entries whose handler has exited (called from the
  /// accept thread so long-lived servers do not accumulate one joined
  /// thread per past connection).
  void ReapFinished() COLR_REQUIRES(mu_);

  portal::SensorPortal* portal_;
  ThreadPool* pool_;
  Options options_;
  Counters counters_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int64_t> inflight_{0};
  std::atomic<uint64_t> next_ordinal_{0};

  Mutex mu_{SyncSite::kServerConns};
  std::vector<std::unique_ptr<ConnEntry>> conns_ COLR_GUARDED_BY(mu_);
};

}  // namespace colr::net

#endif  // COLR_NET_SERVER_H_
