#pragma once
/// \file server.hpp
/// \brief GatewayServer: the HTTP serving edge over a DharmaClient.
///
/// The ROADMAP's "serving edge" item: clients that speak HTTP — curl, wrk,
/// Prometheus, load balancers — reach the overlay through this server
/// instead of linking the C++ stack. The threading model keeps the PR 5/7
/// affinity rules intact:
///
///   event thread ── poll(): accept, read, parse, write, reap
///        │  parsed request (one in flight per connection)
///        ▼
///   worker pool ── route + handler: BLOCKING DharmaClient calls
///        │           (each call posts to the engine loop thread through
///        │            core::Runtime and waits — workers never touch
///        │            engine state directly, so the affinity checker
///        │            stays happy and the engine stays lock-free)
///        ▼
///   completion queue ──(self-pipe wake)──▶ event thread writes response
///
/// Because at most one request per connection is ever in flight, responses
/// are written strictly in request order — pipelining correctness without
/// response re-sequencing. Backpressure is explicit and typed: when the
/// number of dispatched-but-unanswered requests reaches
/// GatewayConfig::maxPendingRequests, new requests are answered 503
/// {"error":"overloaded"} on the event thread without ever reaching the
/// pool, and during a graceful drain (stop(), SIGTERM in the daemon) new
/// requests get 503 {"error":"draining"} + Connection: close while
/// in-flight ones finish.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "gateway/connection.hpp"
#include "gateway/http.hpp"
#include "gateway/router.hpp"
#include "obs/registry.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace dharma::obs {
class Histogram;
class MetricsSampler;
class TraceRing;
}  // namespace dharma::obs

namespace dharma::gateway {

/// Why start() failed. Startup failures are typed so daemons can print one
/// crisp line and exit 2 instead of aborting on an exception (the
/// bind-error contract shared with the UDP transport — see
/// net::TransportError).
enum class StartError : u8 {
  kNone = 0,        ///< listening
  kBadAddress,      ///< bind host is not a valid IPv4 literal
  kSocketFailed,    ///< socket()/pipe() failed
  kBindInUse,       ///< bind(): EADDRINUSE — port already taken
  kBindFailed,      ///< bind(): any other errno
  kListenFailed,    ///< listen() failed
};

const char* startErrorName(StartError e);

struct GatewayConfig {
  std::string bindHost = "127.0.0.1";
  u16 port = 0;  ///< 0 = ephemeral; port() reports the bound port
  usize workers = 4;
  usize maxConnections = 256;
  /// Dispatched-but-unanswered request cap across all connections; beyond
  /// it new requests are refused with a typed 503 on the event thread.
  usize maxPendingRequests = 128;
  /// Per-connection parsed-request queue cap; a connection at the cap stops
  /// being read (TCP backpressure) until dispatches drain it.
  usize maxQueuedPerConnection = 16;
  u32 defaultSearchSteps = 1;  ///< GET /search without &steps=
  u32 maxSearchSteps = 8;      ///< cap on &steps= (400 above it)
  u64 drainDeadlineMs = 5000;  ///< graceful-stop budget before force close
  HttpLimits limits;
};

/// Gateway-local request counters. Snapshot via counters(); rendered by
/// GET /stats (JSON) and GET /metrics (Prometheus text).
struct GatewayCounters {
  u64 connectionsAccepted = 0;
  u64 connectionsClosed = 0;
  u64 connectionsRejected = 0;  ///< refused at maxConnections
  u64 requestsDispatched = 0;   ///< handed to the worker pool
  u64 responses = 0;            ///< responses queued for write
  u64 parseErrors = 0;          ///< connections failed by the parser
  u64 overloadRejected = 0;     ///< 503 {"error":"overloaded"}
  u64 drainRejected = 0;        ///< 503 {"error":"draining"}
  u64 bytesIn = 0;
  u64 bytesOut = 0;
  /// route label -> status -> responses (includes the synthesized 4xx/503).
  std::map<std::string, std::map<u16, u64>> byRouteStatus;
};

class GatewayServer {
 public:
  /// Engine-side taps, all optional. Both callbacks run on WORKER threads —
  /// implementations that read engine loop-thread state must post through
  /// the runtime (see examples/dharma_node.cpp).
  struct Deps {
    core::DharmaClient* client = nullptr;  ///< required for the data routes
    /// Process-wide metrics registry backing GET /metrics and the /stats
    /// "metrics" block. The gateway mirrors its own counters into it and
    /// registers its per-route latency histograms there. Null = the server
    /// owns a private registry (gateway families only). Must outlive the
    /// server.
    obs::MetricsRegistry* metrics = nullptr;
    /// Called (worker thread) right before a /metrics or /stats render:
    /// mirror engine-side counters into the registry. Implementations that
    /// read engine loop-thread state must post through the runtime.
    std::function<void()> collectEngine;
    /// Returns a JSON object (braces included) merged into /stats under
    /// "engine". Empty result omits the key.
    std::function<std::string()> engineStatsJson;
    /// Sampler whose in-memory ring feeds the /stats "samples" array.
    obs::MetricsSampler* sampler = nullptr;
    /// Trace ring behind GET /debug/traces (404 "tracing-disabled" unset).
    obs::TraceRing* traces = nullptr;
  };

  GatewayServer(GatewayConfig cfg, Deps deps);
  ~GatewayServer();  ///< stop()s if still running

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// Binds, listens and spawns the event thread + worker pool. Returns
  /// kNone on success; any other value leaves the server stopped with
  /// errno detail in startDetail().
  StartError start();

  /// errno/description detail for a failed start() ("bind: address in use").
  const std::string& startDetail() const { return startDetail_; }

  /// Graceful drain: stop accepting, answer queued requests, flush writes,
  /// force-close at the drain deadline, join all threads. Idempotent.
  void stop();

  bool running() const { return running_; }

  /// Bound port (resolves ephemeral port 0); valid after start().
  u16 port() const { return boundPort_; }

  GatewayCounters counters() const EXCLUDES(statsMu_);

  /// Mirrors the current gateway counters into the metrics registry — what
  /// /metrics and /stats do before rendering. Callable from any thread;
  /// the daemons' sampler collect hook uses it so periodic samples carry
  /// fresh dharma_gateway_* values too.
  void publishMetrics() EXCLUDES(statsMu_) { syncRegistry(counters()); }

  const GatewayConfig& config() const { return cfg_; }

 private:
  struct Dispatch {
    u64 connId = 0;
    HttpRequest req;
  };
  struct Completion {
    u64 connId = 0;
    std::string bytes;
    bool close = false;
    const char* routeLabel = "";
    u16 status = 0;
  };

  void eventLoop();
  void acceptReady();
  void readReady(Connection& c);
  void dispatchReady(Connection& c) EXCLUDES(statsMu_);
  void drainCompletions() EXCLUDES(cqMu_);
  /// Synthesizes + queues a response on the event thread (4xx/503 paths).
  void respondNow(Connection& c, HttpResponse resp, const char* routeLabel)
      EXCLUDES(statsMu_);
  void recordResponse(const char* routeLabel, u16 status, usize bytes)
      EXCLUDES(statsMu_);
  void wake();

  /// Worker-side: route + handler, blocking client calls. Pure function of
  /// the request — all mutable state it touches is the client's, which
  /// serialises on the engine loop thread.
  HttpResponse handle(const HttpRequest& req, const char** routeLabel);
  HttpResponse handlePut(const RouteMatch& m, const HttpRequest& req);
  HttpResponse handlePostTags(const RouteMatch& m, const HttpRequest& req);
  HttpResponse handleSearch(const HttpRequest& req);
  HttpResponse handleResolve(const RouteMatch& m);
  HttpResponse handleStats() EXCLUDES(statsMu_);
  HttpResponse handleMetrics() EXCLUDES(statsMu_);
  HttpResponse handleDebugTraces();

  /// Mirrors \p g into the registry's dharma_gateway_* counter families
  /// (Counter::set — the struct under statsMu_ stays the source of truth,
  /// so /stats and /metrics can never drift apart).
  void syncRegistry(const GatewayCounters& g);
  /// Per-route latency histogram handle; registers on first use for labels
  /// outside the pre-registered route table.
  obs::Histogram& routeHistogram(const char* label);

  GatewayConfig cfg_;
  Deps deps_;

  /// Fallback registry when Deps::metrics is null; registry_ points at
  /// whichever one is live.
  std::unique_ptr<obs::MetricsRegistry> ownedRegistry_;
  obs::MetricsRegistry* registry_ = nullptr;
  /// Pre-registered handles for the scalar dharma_gateway_* counters (same
  /// order as GatewayCounters' fields).
  obs::Counter* regAccepted_ = nullptr;
  obs::Counter* regClosed_ = nullptr;
  obs::Counter* regConnRejected_ = nullptr;
  obs::Counter* regRequests_ = nullptr;
  obs::Counter* regParseErrors_ = nullptr;
  obs::Counter* regOverload_ = nullptr;
  obs::Counter* regDrain_ = nullptr;
  obs::Counter* regBytesIn_ = nullptr;
  obs::Counter* regBytesOut_ = nullptr;
  /// route label -> latency histogram (filled in the constructor for every
  /// RouteId; guarded additions for synthetic labels go through mapMu_).
  mutable Mutex histMapMu_;
  std::map<std::string, obs::Histogram*, std::less<>> routeHist_
      GUARDED_BY(histMapMu_);

  int listenFd_ = -1;
  int wakePipe_[2] = {-1, -1};
  u16 boundPort_ = 0;
  std::string startDetail_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool stopped_ = false;  ///< stop() ran to completion (main thread only)

  std::thread eventThread_;
  std::unique_ptr<ThreadPool> pool_;

  // --- event-thread-only state ---
  std::map<u64, std::unique_ptr<Connection>> conns_;
  u64 nextConnId_ = 1;
  usize inFlightTotal_ = 0;  ///< dispatched-but-unanswered requests

  mutable Mutex cqMu_;
  std::vector<Completion> completions_ GUARDED_BY(cqMu_);

  mutable Mutex statsMu_;
  GatewayCounters counters_ GUARDED_BY(statsMu_);
};

/// Maps an OpError onto its HTTP status (404 for kNotFound, 503 for the
/// availability failures) — the error-body token is opErrorToken().
u16 httpStatusFor(core::OpError e);

/// Stable lower-kebab token for the JSON error body ("not-found", ...).
const char* opErrorToken(core::OpError e);

/// {"error":"<token>","detail":"<detail>"} with proper escaping.
std::string errorBody(std::string_view token, std::string_view detail);

}  // namespace dharma::gateway
