/// \file dharma_node.cpp
/// \brief The DHARMA peer daemon: overlay nodes on real UDP sockets, a line
/// protocol on stdin, and optionally the HTTP gateway.
///
/// Nothing here is simulated: a sharded set of RealTimeExecutor loops drives
/// the protocol against the wall clock, an EpollTransport moves every RPC
/// through real sockets, and the same KademliaNode / DharmaClient code that
/// reproduces the paper's numbers in virtual time serves live traffic.
///
///   $ ./dharma_node                          # 3-node loopback cluster
///   $ ./dharma_node --nodes 8 --join 127.0.0.1:PORT   # join another daemon
///   $ ./dharma_node --bind 127.0.0.1:8080    # ... and serve HTTP on :8080
///   $ curl -X PUT  localhost:8080/resources/song1?tag=rock -d 'http://u'
///   $ curl 'localhost:8080/search?tag=rock&steps=2'
///
/// `--bind HOST[:PORT]`: the UDP sockets bind HOST. With a PORT (0 picks an
/// ephemeral one, printed in the banner) the daemon also serves the REST
/// routes of gateway::GatewayServer on HOST:PORT, with `--workers` HTTP
/// workers and the client record cache on unless `--cache off`. The
/// `dharma_gateway` target is this file built with a default `--bind` of
/// 127.0.0.1:8080; `dharma_node` defaults to 127.0.0.1 (UDP only).
///
/// Each node prints "node <i> listening on <ip:port>"; hand any of those
/// addresses to a second daemon's --join. Commands arrive on stdin, one per
/// line (see `help`):
///
///   insert <res> <uri> <tag> [tag ...]
///   tag <res> <tag> [tag ...]
///   search <tag>
///   resolve <res>
///   ping <ip:port>
///   drop <ip:port> | undrop <ip:port> | undrop all
///   stats | stats-json | trace
///   quit
///
/// Every command answers "OK ..." or "ERR ...". The process exits 0 iff no
/// command failed — which is what lets CI drive a put/get/tag smoke through
/// a pipe, and what lets the cluster harness (tests/cluster/) script whole
/// fleets of these processes. Startup failures (a malformed flag, an
/// unopenable --metrics-out, a UDP or HTTP bind error) print one
/// "ERR startup (<kind>): ..." line on stderr and exit 2.
///
/// SIGTERM/SIGINT request a graceful stop: the daemon finishes the command
/// in flight, prints "OK shutdown signal=...", drains HTTP, and exits
/// through the same path as `quit`. The drop/undrop commands and the
/// --drop-peers flag install transport-level partition rules (datagrams
/// to/from those peers silently vanish), which is how the harness scripts
/// network partitions on one host.

#include <charconv>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "dht/maintenance.hpp"
#include "gateway/server.hpp"
#include "net/epoll_transport.hpp"
#include "net/sharded.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/options.hpp"

#include <unistd.h>

#ifndef DHARMA_DEFAULT_BIND
#define DHARMA_DEFAULT_BIND "127.0.0.1"
#endif

using namespace dharma;

namespace {

/// Signal number of the pending graceful-stop request (0 = none). Written
/// by the signal handler, polled by the command loop.
volatile std::sig_atomic_t g_stopSignal = 0;

void onStopSignal(int sig) { g_stopSignal = sig; }

const char* errorName(core::OpError e) {
  switch (e) {
    case core::OpError::kNotFound: return "not-found";
    case core::OpError::kQuorumFailed: return "quorum-failed";
    case core::OpError::kTimeout: return "timeout";
    case core::OpError::kNodeOffline: return "node-offline";
  }
  return "unknown";
}

/// A startup condition the daemon cannot run with. main() prints
/// "ERR startup (<kind>): <what>" on stderr and exits 2.
struct StartupError : std::runtime_error {
  const char* kind;
  StartupError(const char* k, const std::string& what)
      : std::runtime_error(what), kind(k) {}
};

constexpr i64 kMaxNodes = 4096;   ///< one UDP socket each
constexpr i64 kMaxThreads = 256;  ///< --shards loops, --workers HTTP threads
constexpr i64 kMaxInt = std::numeric_limits<i32>::max();

/// Integer flag --key within [lo, hi], or \p fallback when absent or bare.
/// The whole value must be a decimal integer; anything else is a bad flag,
/// never an uncaught exception or a negative count wrapped by a cast.
i64 intFlag(const Options& opts, const std::string& key, i64 fallback,
            i64 lo, i64 hi) {
  std::string s = opts.getString(key, "");
  if (s.empty()) return fallback;
  i64 v = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || v < lo || v > hi) {
    throw StartupError("bad-flag", "--" + key + " expects an integer in [" +
                                       std::to_string(lo) + ", " +
                                       std::to_string(hi) + "], got '" + s +
                                       "'");
  }
  return v;
}

/// A millisecond flag, returned in microseconds.
net::TimeUs msFlag(const Options& opts, const std::string& key, i64 fallback) {
  return static_cast<net::TimeUs>(intFlag(opts, key, fallback, 0, kMaxInt)) *
         1000;
}

bool boolFlag(const Options& opts, const std::string& key, bool fallback) {
  try {
    return opts.getBool(key, fallback);
  } catch (const std::invalid_argument& e) {
    throw StartupError("bad-flag", e.what());
  }
}

/// Everything the command line says, validated before any executor, socket
/// or file exists.
struct Flags {
  usize nodes;
  usize shards;
  std::string udpHost;
  std::optional<u16> httpPort;  ///< set iff --bind carries a port
  usize workers;
  bool cache;
  std::string join;
  usize joinRetries;
  bool maintenance;
  bool traces;
  u64 statsIntervalMs;
  std::string metricsOut;
  std::string dropPeers;
  dht::NodeConfig nodeCfg;
  dht::MaintenanceConfig mCfg;

  explicit Flags(const Options& opts) {
    nodes = static_cast<usize>(intFlag(opts, "nodes", 3, 1, kMaxNodes));
    shards = static_cast<usize>(intFlag(opts, "shards", 1, 1, kMaxThreads));
    parseBind(opts.getString("bind", DHARMA_DEFAULT_BIND));
    workers =
        static_cast<usize>(intFlag(opts, "workers", 4, 0, kMaxThreads));
    cache = boolFlag(opts, "cache", httpPort.has_value());
    join = opts.getString("join", "");
    joinRetries =
        static_cast<usize>(intFlag(opts, "join-retries", 5, 0, kMaxInt));
    maintenance = boolFlag(opts, "maintenance", true);
    traces = boolFlag(opts, "traces", true);
    statsIntervalMs =
        static_cast<u64>(intFlag(opts, "stats-interval-ms", 0, 0, kMaxInt));
    metricsOut = opts.getString("metrics-out", "");
    dropPeers = opts.getString("drop-peers", "");
    nodeCfg.rpcTimeoutUs = msFlag(opts, "rpc-timeout-ms", 1500);
    mCfg.bucketRefreshIntervalUs = msFlag(opts, "refresh-ms", 30'000);
    mCfg.republishIntervalUs = msFlag(opts, "republish-ms", 60'000);
  }

  /// --bind HOST[:PORT]: without a colon, UDP only on HOST; with one, the
  /// port is a decimal in 0..65535 (0 = ephemeral) and turns HTTP on.
  void parseBind(const std::string& spec) {
    usize colon = spec.rfind(':');
    if (colon == std::string::npos) {
      udpHost = spec;
      return;
    }
    udpHost = spec.substr(0, colon);
    const char* p = spec.data() + colon + 1;
    const char* e = spec.data() + spec.size();
    u16 port = 0;
    auto [end, ec] = std::from_chars(p, e, port);
    if (udpHost.empty() || p == e || ec != std::errc() || end != e) {
      throw StartupError("bad-address",
                         "--bind expects HOST[:PORT], got '" + spec + "'");
    }
    httpPort = port;
  }
};

struct Daemon {
  /// Process-wide observability: one registry every layer (gateway, client,
  /// node, UDP) records into, one trace ring completed op spans land in.
  /// The `stats` line stays raw-counter based for harness compat;
  /// `stats-json`, --metrics-out and GET /stats read THIS registry, so every
  /// surface renders the same snapshot. Declared before the executors: the
  /// shard group registers its per-shard families at construction.
  obs::MetricsRegistry registry;
  obs::TraceRing traces{256};
  bool tracesOn;
  /// The sharded runtime: node i lives on shard i % shards forever — its
  /// datagrams, timers and blocking ops all run there (see rtFor/shardOf).
  net::ShardedExecutor execs;
  net::EpollTransport transport;
  // The shared secret stands in for a real certification authority; every
  // daemon on the host uses the same one so cross-process credentials
  // verify (Likir's CS is a trusted third party by construction).
  crypto::CertificationService cs{"dharma-node-demo-secret"};
  core::ShardedRuntime rt;
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;
  std::vector<std::unique_ptr<dht::MaintenanceManager>> managers;
  std::unique_ptr<core::DharmaClient> client;
  std::unique_ptr<obs::MetricsSampler> sampler;
  /// The HTTP edge, when --bind carries a port.
  std::unique_ptr<gateway::GatewayServer> server;

  explicit Daemon(const Flags& f)
      : tracesOn(f.traces),
        execs(net::ShardedExecutor::Config{f.shards, &registry}),
        transport(execs.shard(0), net::UdpConfig{f.udpHost, 1400, &registry}),
        rt(execs, transport) {}

  /// The shard owning node \p i, and the runtime blocking ops against it
  /// must wait on. nodes[0] (the command-loop and HTTP node) is always on
  /// shard 0.
  usize shardOf(usize i) const { return execs.shardOf(i); }
  core::Runtime& rtFor(usize i) { return rt.forShard(shardOf(i)); }
  core::Runtime& rt0() { return rt.forShard(0); }

  ~Daemon() {
    // HTTP drains first: its workers block through the runtime, so the
    // loops must outlive the worker pool.
    if (server) server->stop();
    // Stop the sampler on its loop thread BEFORE stopping the loops, so a
    // tick can't re-arm mid-stop (same discipline as the managers below).
    if (sampler) {
      rt0().awaitDone([&](std::function<void()> done) {
        sampler->stop();
        done();
      });
    }
    // Stop the loops FIRST: manager ticks run (and re-arm themselves) on
    // their node's loop thread, so stopping a manager from here while its
    // loop is alive would race its timer bookkeeping. With the executors
    // stopped, the managers' stop() is just cancel() calls into dead
    // queues.
    execs.stop();
    for (auto& m : managers) m->stop();
    transport.close();
  }

  /// Mirrors engine counters (client, node 0, client cache, UDP) into the
  /// registry. MUST run on shard 0's loop thread: the sampler's collect
  /// hook calls it there; other threads post through rt0().
  void syncEngineOnLoop() {
    core::DharmaClient::Counters cc = client->counters();
    core::OpCost cost = client->totalCost();
    dht::NodeCounters nc = nodes[0]->counters();
    cache::CacheStats cs = client->cacheStats();
    net::UdpStats us = transport.stats();
    registry.counter("dharma_client_ops_total", "Protocol operations completed")
        .set(cc.ops);
    registry
        .counter("dharma_client_failures_total",
                 "Operations returning an error")
        .set(cc.failures);
    registry
        .counter("dharma_client_lookups_total",
                 "Overlay lookups paid (Table I unit)")
        .set(cost.lookups);
    registry
        .counter("dharma_client_cache_hits_total",
                 "Reads served by the client record cache")
        .set(cs.hits);
    registry
        .counter("dharma_client_cache_misses_total",
                 "Client record cache misses")
        .set(cs.misses);
    registry
        .counter("dharma_node_cache_hits_total",
                 "GETs answered from the node-side cache")
        .set(nc.cacheHits);
    registry
        .counter("dharma_node_stores_deduplicated_total",
                 "Replayed STOREs acked without re-applying")
        .set(nc.storesDeduplicated);
    registry.counter("dharma_node_rpcs_sent_total", "RPC requests sent")
        .set(nc.rpcsSent);
    registry.counter("dharma_node_timeouts_total", "RPCs that timed out")
        .set(nc.timeouts);
    registry
        .counter("dharma_udp_datagrams_sent_total",
                 "Datagrams accepted by sendto()")
        .set(us.sent);
    registry
        .counter("dharma_udp_datagrams_received_total",
                 "Datagrams handed to an endpoint handler")
        .set(us.received);
    registry.counter("dharma_udp_bytes_sent_total", "Payload bytes accepted")
        .set(us.bytesSent);
  }

  bool boot(const Flags& f) {
    execs.start();
    dht::NodeConfig nodeCfg = f.nodeCfg;
    nodeCfg.metrics = &registry;
    if (tracesOn) nodeCfg.traces = &traces;
    // Distinct user ids per process so two daemons on one host never
    // collide in id space.
    std::string prefix = "node-" + std::to_string(::getpid()) + "-";
    for (usize i = 0; i < f.nodes; ++i) {
      // Node i is born onto its shard and never leaves it: the executor
      // reference IS the affinity, and registerEndpoint routes the node's
      // datagrams to the same place.
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          execs.shard(shardOf(i)), transport, cs,
          cs.enroll(prefix + std::to_string(i)), nodeCfg, 0x9000 + i));
      std::cout << "node " << i << " listening on "
                << net::formatAddress(nodes[i]->address()) << "\n";
    }

    if (!f.join.empty()) {
      net::PeerResolution peer = transport.resolvePeer(f.join);
      if (!peer.ok()) {
        std::cout << "ERR bad --join spec '" << f.join << "' ("
                  << peer.errorName() << ")\n";
        return false;
      }
      // Learn the peer's node id with a bootstrap ping, then the usual
      // self-lookup join through the enrolled contact. Retried: the peer
      // process may still be booting when we come up (cluster harness
      // restarts race their bootstrap target's socket).
      bool up = false;
      for (usize attempt = 0; attempt < f.joinRetries && !up; ++attempt) {
        up = core::awaitResult<bool>(rt0(),
                                     [&](std::function<void(bool)> done) {
          nodes[0]->pingAddress(peer.addr, std::move(done));
        });
      }
      if (!up) {
        std::cout << "ERR join peer " << f.join << " did not answer\n";
        return false;
      }
      rt0().awaitDone([&](std::function<void()> done) {
        nodes[0]->findNode(nodes[0]->id(),
                           [done = std::move(done)](dht::LookupResult) {
                             done();
                           });
      });
      std::cout << "joined cluster via " << f.join << "\n";
    }
    for (usize i = 1; i < nodes.size(); ++i) {
      dht::Contact seed = nodes[0]->contact();
      // Each join waits on the joining node's OWN shard; the RPCs cross
      // shards over the transport like any other wire traffic.
      rtFor(i).awaitDone([&](std::function<void()> done) {
        nodes[i]->join(seed, std::move(done));
      });
    }

    if (f.maintenance) {
      for (usize i = 0; i < nodes.size(); ++i) {
        managers.push_back(std::make_unique<dht::MaintenanceManager>(
            execs.shard(shardOf(i)), transport, *nodes[i], f.mCfg,
            0x7000 + i));
      }
      // start() reads routing tables, which each loop thread may already
      // be mutating (e.g. refresh lookups from a cluster we joined) — run
      // it in the callback world like every other protocol-state access,
      // on the manager's own shard.
      for (usize i = 0; i < managers.size(); ++i) {
        rtFor(i).awaitDone([&](std::function<void()> done) {
          managers[i]->start();
          done();
        });
      }
    }

    core::DharmaConfig clientCfg;
    clientCfg.cacheEnabled = f.cache;
    clientCfg.metrics = &registry;
    if (tracesOn) clientCfg.traces = &traces;
    client = std::make_unique<core::DharmaClient>(rt0(), *nodes[0],
                                                  clientCfg);
    return true;
  }

  /// Builds the sampler (always, so `stats-json` and the /stats "samples"
  /// ring work). Its collect hook also publishes the HTTP counters once
  /// `server` exists; startSamplerTick() runs after startHttp(), so no tick
  /// reads `server` while it is being set.
  void createSampler(u64 intervalMs, std::shared_ptr<std::ofstream> out) {
    obs::SamplerConfig sc;
    sc.intervalUs = (intervalMs == 0 ? 1000 : intervalMs) * 1000;
    sc.seed = 0xD0DE;
    // The sampler ticks on shard 0 — where nodes[0] and the client live,
    // so its collect hook reads their counters with the right affinity.
    sampler = std::make_unique<obs::MetricsSampler>(execs.shard(0), registry,
                                                    sc);
    sampler->setCollect([this] {
      syncEngineOnLoop();
      if (server) server->publishMetrics();
    });
    if (out) {
      sampler->addSink([out = std::move(out)](const obs::Sample& sample) {
        *out << sample.toJson() << "\n";
        out->flush();
      });
    }
  }

  void startSamplerTick(u64 intervalMs) {
    if (intervalMs == 0) return;
    rt0().awaitDone([&](std::function<void()> done) {
      sampler->start();
      done();
    });
  }

  /// Engine block of GET /stats. Runs on an HTTP worker thread, so loop
  /// state is read through rt0() like the line protocol's `stats`.
  std::string engineStatsJson() {
    core::DharmaClient::Counters cc;
    core::OpCost cost;
    dht::NodeCounters nc;
    cache::CacheStats cs;
    usize rtSize = 0;
    rt0().awaitDone([&](std::function<void()> done) {
      cc = client->counters();
      cost = client->totalCost();
      nc = nodes[0]->counters();
      cs = client->cacheStats();
      rtSize = nodes[0]->routing().size();
      done();
    });
    net::UdpStats us = transport.stats();
    std::ostringstream out;
    out << "{\"ops\":" << cc.ops << ",\"failures\":" << cc.failures
        << ",\"retries\":" << cc.retries << ",\"lookups\":" << cost.lookups
        << ",\"servedFromCache\":" << cost.servedFromCache
        << ",\"routingTable\":" << rtSize
        << ",\"nodeCacheHits\":" << nc.cacheHits
        << ",\"storesDeduplicated\":" << nc.storesDeduplicated
        << ",\"clientCache\":{\"hits\":" << cs.hits
        << ",\"misses\":" << cs.misses << ",\"evictions\":" << cs.evictions
        << ",\"invalidations\":" << cs.invalidations << "}"
        << ",\"udp\":{\"sent\":" << us.sent << ",\"received\":" << us.received
        << ",\"bytesSent\":" << us.bytesSent
        << ",\"sendErrors\":" << us.sendErrors << "}}";
    return out.str();
  }

  /// Serves HTTP on \p host:\p port in front of the client on nodes[0].
  void startHttp(const std::string& host, u16 port, usize workers) {
    gateway::GatewayConfig cfg;
    cfg.bindHost = host == "localhost" ? std::string("127.0.0.1") : host;
    cfg.port = port;
    cfg.workers = workers;
    gateway::GatewayServer::Deps deps;
    deps.client = client.get();
    deps.engineStatsJson = [this] { return engineStatsJson(); };
    deps.collectEngine = [this] {
      rt0().awaitDone([&](std::function<void()> done) {
        syncEngineOnLoop();
        done();
      });
    };
    deps.metrics = &registry;
    deps.sampler = sampler.get();
    if (tracesOn) deps.traces = &traces;
    server = std::make_unique<gateway::GatewayServer>(cfg, deps);
    gateway::StartError se = server->start();
    if (se != gateway::StartError::kNone) {
      throw StartupError(gateway::startErrorName(se), server->startDetail());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered protocol over pipes: the cluster harness reads replies as
  // they happen, so every line must leave the process immediately.
  std::cout << std::unitbuf;

  // Flags and the --metrics-out file are checked before any executor or
  // socket exists: a bad one is one typed line and exit 2 — the
  // startup-failure code, distinct from protocol errors (1).
  std::optional<Flags> parsed;
  std::shared_ptr<std::ofstream> metricsOut;
  try {
    parsed.emplace(Options(argc, argv));
    if (!parsed->metricsOut.empty()) {
      metricsOut = std::make_shared<std::ofstream>(
          parsed->metricsOut, std::ios::out | std::ios::trunc);
      if (!*metricsOut) {
        throw StartupError("metrics-out",
                           "cannot open '" + parsed->metricsOut + "'");
      }
    }
  } catch (const StartupError& e) {
    std::cerr << "ERR startup (" << e.kind << "): " << e.what() << "\n";
    return 2;
  }
  const Flags& f = *parsed;

  // Graceful-stop plumbing, in three steps: block the signals (so the
  // executor/receiver/HTTP threads spawned during boot inherit the blocked
  // mask), install the handlers WITHOUT SA_RESTART (so a signal interrupts
  // the blocking stdin read instead of silently restarting it), and
  // unblock on the main thread only once boot is done — making main the
  // one thread that takes delivery.
  sigset_t stopSet;
  sigemptyset(&stopSet);
  sigaddset(&stopSet, SIGTERM);
  sigaddset(&stopSet, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stopSet, nullptr);
  struct sigaction sa{};
  sa.sa_handler = onStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: wake the getline below
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // Socket failures at boot (bad --bind host, port in use, fd exhaustion)
  // are typed too: never an uncaught-exception abort.
  std::unique_ptr<Daemon> daemon;
  try {
    daemon = std::make_unique<Daemon>(f);
    if (!daemon->boot(f)) return 2;
    // Boot-time partition rules (comma-separated ip:port list).
    std::istringstream specs(f.dropPeers);
    std::string one;
    while (std::getline(specs, one, ',')) {
      net::PeerResolution p = daemon->transport.resolvePeer(one);
      if (!p.ok()) {
        throw StartupError("bad-flag", std::string("bad --drop-peers entry '") +
                                           one + "' (" + p.errorName() + ")");
      }
      daemon->transport.dropPeer(p.addr);
    }
    daemon->createSampler(f.statsIntervalMs, metricsOut);
    if (f.httpPort) daemon->startHttp(f.udpHost, *f.httpPort, f.workers);
  } catch (const net::TransportError& e) {
    std::cerr << "ERR startup (" << e.kindName() << "): " << e.what() << "\n";
    return 2;
  } catch (const StartupError& e) {
    std::cerr << "ERR startup (" << e.kind << "): " << e.what() << "\n";
    return 2;
  }
  Daemon& d = *daemon;
  d.startSamplerTick(f.statsIntervalMs);

  if (d.server) {
    std::cout << "gateway listening on http://" << d.server->config().bindHost
              << ":" << d.server->port() << "\n";
    std::cout << "gateway up: " << f.nodes << " node(s), " << f.workers
              << " worker(s), cache=" << (f.cache ? "on" : "off")
              << "; type 'help' for commands\n";
  }
  std::cout << "cluster up: " << f.nodes
            << " node(s); type 'help' for commands\n";
  pthread_sigmask(SIG_UNBLOCK, &stopSet, nullptr);

  bool anyError = false;
  auto fail = [&](const std::string& what) {
    anyError = true;
    std::cout << "ERR " << what << "\n";
  };

  std::string line;
  while (g_stopSignal == 0 && std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "help") {
      std::cout << "OK commands: insert <res> <uri> <tag> [tag ...] | "
                   "tag <res> <tag> [tag ...] | search <tag> | "
                   "resolve <res> | ping <ip:port> | drop <ip:port> | "
                   "undrop <ip:port>|all | stats | stats-json | trace | quit"
                << (d.server ? " (HTTP: /resources/{r}, /search, "
                               "/resolve/{r}, /stats, /metrics, "
                               "/debug/traces)"
                             : "")
                << "\n";
    } else if (cmd == "insert") {
      std::string res, uri, t;
      in >> res >> uri;
      std::vector<std::string> tags;
      while (in >> t) tags.push_back(t);
      if (res.empty() || uri.empty()) {
        fail("usage: insert <res> <uri> <tag> [tag ...]");
        continue;
      }
      auto out = d.client->insertResource(res, uri, tags);
      if (out.ok()) {
        std::cout << "OK inserted " << res << " (" << tags.size()
                  << " tags, " << out.cost.lookups << " lookups, minAcks="
                  << out.value().minReplicas << ")\n";
      } else {
        fail("insert " + res + ": " + errorName(*out.err));
      }
    } else if (cmd == "tag") {
      std::string res, t;
      in >> res;
      std::vector<std::string> tags;
      while (in >> t) tags.push_back(t);
      if (res.empty() || tags.empty()) {
        fail("usage: tag <res> <tag> [tag ...]");
        continue;
      }
      auto out = d.client->tagResources(res, tags);
      if (out.ok()) {
        std::cout << "OK tagged " << res << " (+" << tags.size() << " tags, "
                  << out.cost.lookups << " lookups)\n";
      } else {
        fail("tag " + res + ": " + errorName(*out.err));
      }
    } else if (cmd == "search") {
      std::string t;
      in >> t;
      if (t.empty()) {
        fail("usage: search <tag>");
        continue;
      }
      auto out = d.client->searchStep(t);
      if (!out.ok()) {
        fail("search " + t + ": " + errorName(*out.err));
        continue;
      }
      std::cout << "OK search " << t << ": " << out.val->resources.size()
                << " resource(s), " << out.val->relatedTags.size()
                << " related tag(s)\n";
      for (const auto& e : out.val->resources) {
        std::cout << "  resource " << e.name << " (w=" << e.weight << ")\n";
      }
      for (const auto& e : out.val->relatedTags) {
        std::cout << "  related " << e.name << " (w=" << e.weight << ")\n";
      }
    } else if (cmd == "resolve") {
      std::string res;
      in >> res;
      if (res.empty()) {
        fail("usage: resolve <res>");
        continue;
      }
      auto out = d.client->resolveUri(res);
      if (out.ok()) {
        std::cout << "OK " << res << " -> " << *out.val << "\n";
      } else {
        fail("resolve " + res + ": " + errorName(*out.err));
      }
    } else if (cmd == "ping") {
      std::string spec;
      in >> spec;
      if (spec.empty()) {
        fail("usage: ping <ip:port>");
        continue;
      }
      net::PeerResolution p = d.transport.resolvePeer(spec);
      if (!p.ok()) {
        fail("ping " + spec + ": " + p.errorName());
        continue;
      }
      bool up = core::awaitResult<bool>(
          d.rt0(), [&](std::function<void(bool)> done) {
            d.nodes[0]->pingAddress(p.addr, std::move(done));
          });
      if (up) {
        std::cout << "OK ping " << net::formatAddress(p.addr) << "\n";
      } else {
        fail("ping " + net::formatAddress(p.addr) + ": timeout");
      }
    } else if (cmd == "drop") {
      std::string spec;
      in >> spec;
      net::PeerResolution p = d.transport.resolvePeer(spec);
      if (spec.empty() || !p.ok()) {
        fail("usage: drop <ip:port>" +
             (spec.empty() ? std::string()
                           : std::string(" (") + p.errorName() + ")"));
        continue;
      }
      d.transport.dropPeer(p.addr);
      std::cout << "OK drop " << net::formatAddress(p.addr)
                << " (rules=" << d.transport.droppedPeerCount() << ")\n";
    } else if (cmd == "undrop") {
      std::string spec;
      in >> spec;
      if (spec == "all") {
        usize removed = d.transport.clearDroppedPeers();
        std::cout << "OK undrop all (removed=" << removed << ")\n";
        continue;
      }
      net::PeerResolution p = d.transport.resolvePeer(spec);
      if (spec.empty() || !p.ok()) {
        fail("usage: undrop <ip:port>|all" +
             (spec.empty() ? std::string()
                           : std::string(" (") + p.errorName() + ")"));
        continue;
      }
      bool removed = d.transport.undropPeer(p.addr);
      std::cout << "OK undrop " << net::formatAddress(p.addr)
                << " (removed=" << (removed ? 1 : 0) << ")\n";
    } else if (cmd == "stats") {
      // Protocol state (counters, routing tables) belongs to the loop
      // thread; read it there, like every other protocol-state access.
      core::DharmaClient::Counters cc;
      core::OpCost cost;
      dht::NodeCounters nc;
      usize rt0 = 0;
      d.rt0().awaitDone([&](std::function<void()> done) {
        cc = d.client->counters();
        cost = d.client->totalCost();
        nc = d.nodes[0]->counters();
        rt0 = d.nodes[0]->routing().size();
        done();
      });
      net::UdpStats s = d.transport.stats();
      std::cout << "OK stats: ops=" << cc.ops << " failures=" << cc.failures
                << " lookups=" << cost.lookups << " rt=" << rt0
                << " addr=" << net::formatAddress(d.nodes[0]->address())
                << " droprules=" << d.transport.droppedPeerCount()
                << " cachehits=" << nc.cacheHits
                << " storededup=" << nc.storesDeduplicated
                << " | udp sent=" << s.sent << " received=" << s.received
                << " bytes=" << s.bytesSent
                << " oversize=" << s.droppedOversize
                << " ruledrops=" << s.droppedByRule;
      if (d.server) {
        gateway::GatewayCounters g = d.server->counters();
        std::cout << " | http accepted=" << g.connectionsAccepted
                  << " closed=" << g.connectionsClosed
                  << " dispatched=" << g.requestsDispatched
                  << " responses=" << g.responses
                  << " parseerrors=" << g.parseErrors
                  << " overload=" << g.overloadRejected
                  << " drain=" << g.drainRejected << " bytesin=" << g.bytesIn
                  << " bytesout=" << g.bytesOut;
      }
      std::cout << "\n";
    } else if (cmd == "stats-json") {
      // One registry snapshot serves every surface: this is the same
      // sampler the --metrics-out JSONL sink and GET /stats read, so no
      // counter is reachable from only one of them.
      std::string json = core::awaitResult<std::string>(
          d.rt0(), [&](std::function<void(std::string)> done) {
            done(d.sampler->sampleNow().toJson());
          });
      std::cout << "OK stats-json " << json << "\n";
    } else if (cmd == "trace") {
      if (!f.traces) {
        fail("tracing disabled (--traces off)");
      } else {
        std::cout << "OK trace " << d.traces.renderJson(16) << "\n";
      }
    } else {
      fail("unknown command '" + cmd + "' (try 'help')");
    }
  }

  // A stop signal interrupts the getline above (no SA_RESTART), but the
  // handler itself may not have run yet when the read error surfaces —
  // sanitizer runtimes defer async handlers to the next sync point. If
  // stdin failed without reaching real EOF, the flag is on its way: wait
  // for it briefly so the goodbye line is deterministic under every
  // build. (feof distinguishes the cases; cin is sync'd with stdio.)
  if (g_stopSignal == 0 && std::cin.fail() && !std::feof(stdin)) {
    for (int i = 0; i < 200 && g_stopSignal == 0; ++i) ::usleep(10'000);
  }

  if (g_stopSignal != 0) {
    std::cout << "OK shutdown signal="
              << (g_stopSignal == SIGTERM ? "term" : "int") << "\n";
  }
  // Drain HTTP before the goodbye line: everything in flight is answered.
  if (d.server) d.server->stop();
  std::cout << (anyError ? "done (with errors)\n" : "done\n");
  return anyError ? 1 : 0;
}
