#include "net/server.h"

#include <condition_variable>
#include <string>
#include <utility>

namespace colr::net {

namespace {

const Clock* DefaultClock() {
  static const WallClock wall;
  return &wall;
}

}  // namespace

PortalServer::PortalServer(portal::SensorPortal* portal, ThreadPool* pool,
                           Options options)
    : portal_(portal), pool_(pool), options_(options) {
  if (options_.clock == nullptr) options_.clock = DefaultClock();
  if (options_.seed == 0) {
    const ColrEngine* engine = portal_->default_engine();
    options_.seed = engine != nullptr ? engine->seed() : 0xC0FFEEu;
  }
}

PortalServer::~PortalServer() { Stop(); }

Status PortalServer::Start(std::unique_ptr<Listener> listener) {
  if (listener_ != nullptr || stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  listener_ = std::move(listener);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void PortalServer::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  stopping_.store(true, std::memory_order_release);
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<ConnEntry>> entries;
  {
    MutexLock lock(mu_, SyncSite::kServerConns);
    entries.swap(conns_);
  }
  for (auto& e : entries) e->conn->Close();
  for (auto& e : entries) {
    if (e->thread.joinable()) e->thread.join();
  }
}

void PortalServer::ReapFinished() {
  auto it = conns_.begin();
  while (it != conns_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void PortalServer::AcceptLoop() {
  for (;;) {
    Result<std::unique_ptr<Connection>> accepted = listener_->Accept();
    if (!accepted.ok()) return;  // listener closed (Stop) or fatal
    ++counters_.connections_accepted;
    ++counters_.connections_active;
    auto entry = std::make_unique<ConnEntry>();
    entry->conn = std::move(*accepted);
    ConnEntry* raw = entry.get();
    entry->thread = std::thread([this, raw] {
      ServeConnection(raw->conn.get());
      counters_.connections_active += -1;
      raw->done.store(true, std::memory_order_release);
    });
    {
      MutexLock lock(mu_, SyncSite::kServerConns);
      ReapFinished();
      conns_.push_back(std::move(entry));
    }
  }
}

void PortalServer::ServeConnection(Connection* conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  char buf[4096];
  bool running = true;
  while (running) {
    Result<size_t> got = conn->Read(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    decoder.Feed(std::string_view(buf, *got));
    for (;;) {
      Frame frame;
      Result<bool> have = decoder.Next(&frame);
      if (!have.ok()) {
        ++counters_.bad_frames;
        running = false;
        break;
      }
      if (!*have) break;
      QueryRequest request;
      if (frame.type != FrameType::kQuery ||
          !DecodeQueryPayload(frame.payload, &request).ok()) {
        ++counters_.bad_frames;
        running = false;
        break;
      }
      const std::string reply = EncodeReplyFrame(HandleRequest(request));
      if (!conn->WriteAll(reply.data(), reply.size()).ok()) {
        ++counters_.write_errors;
        running = false;
        break;
      }
    }
  }
  conn->Close();
}

QueryReply PortalServer::HandleRequest(const QueryRequest& request) {
  QueryReply reply;
  reply.request_id = request.request_id;
  if (stopping_.load(std::memory_order_acquire)) {
    reply.status = WireStatus::kShuttingDown;
    reply.message = "server is shutting down";
    return reply;
  }

  // Stamped before admission publishes the request in inflight(), so
  // whoever sees it admitted also sees its arrival already taken.
  const TimeMs arrival_ms = options_.clock->NowMs();

  // Admission: bound the admitted-but-unfinished population before the
  // request can occupy queue space. fetch_add-then-check keeps the
  // bound exact under races (two racers both see cur >= max and both
  // back out; neither sneaks past).
  const int64_t prior = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.max_inflight > 0 && prior >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    ++counters_.shed;
    reply.status = WireStatus::kShed;
    reply.message = "admission bound reached (" +
                    std::to_string(options_.max_inflight) + " in flight)";
    return reply;
  }

  // Execute on the pool and wait: the wait is what creates a real
  // queue under overload (an open-loop client keeps sending on *other*
  // connections while this one blocks), which the queue deadline then
  // cuts. ThreadPool(0) degenerates to inline execution here.
  struct Completion {
    Mutex mu{SyncSite::kServerCompletion};
    std::condition_variable_any cv;
    bool done COLR_GUARDED_BY(mu) = false;
  } completion;

  pool_->Submit([&] {
    const TimeMs start_ms = options_.clock->NowMs();
    if (options_.request_timeout_ms > 0 &&
        start_ms - arrival_ms > options_.request_timeout_ms) {
      ++counters_.timeouts;
      reply.status = WireStatus::kTimeout;
      reply.message = "queued " + std::to_string(start_ms - arrival_ms) +
                      " ms, deadline " +
                      std::to_string(options_.request_timeout_ms) + " ms";
    } else {
      const uint64_t ordinal =
          next_ordinal_.fetch_add(1, std::memory_order_relaxed);
      ExecutionContext ctx(DeriveSeed(options_.seed, ordinal));
      QueryStats stats;
      Result<rel::Relation> result =
          portal_->ExecuteOne(request.text, ctx, &stats);
      if (result.ok()) {
        ++counters_.queries_ok;
        reply.status = WireStatus::kOk;
        reply.rows = static_cast<int64_t>(result->size());
        reply.probes = stats.sensors_probed;
        reply.probe_successes = stats.probe_successes;
        reply.probes_coalesced = stats.probes_coalesced;
        reply.probes_reused = stats.probes_reused;
        reply.probes_shed = stats.probes_shed;
        reply.body_json = RelationToJson(*result);
      } else {
        ++counters_.query_errors;
        const StatusCode code = result.status().code();
        reply.status = (code == StatusCode::kInvalidArgument ||
                        code == StatusCode::kNotFound)
                           ? WireStatus::kParseError
                           : WireStatus::kExecError;
        reply.message = result.status().ToString();
      }
    }
    {
      MutexLock lock(completion.mu, SyncSite::kServerCompletion);
      completion.done = true;
      // Notify while holding the lock: the waiter cannot observe
      // `done` (and destroy `completion`) until we release it, so the
      // cv is never destroyed under a racing notify_all.
      completion.cv.notify_all();
    }
  });

  {
    MutexLock lock(completion.mu, SyncSite::kServerCompletion);
    while (!completion.done) completion.cv.wait(completion.mu);
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return reply;
}

}  // namespace colr::net
