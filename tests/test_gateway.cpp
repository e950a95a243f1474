/// End-to-end suite for the gateway subsystem over REAL sockets: a live
/// overlay (RealTimeExecutor + loopback UDP) behind a GatewayServer, driven
/// through gateway::HttpClient TCP connections. Covers the REST routes and
/// their error taxonomy, keep-alive and pipelining on the wire, the parser
/// limits at the socket level, typed startup failures (port in use, bad
/// address), and graceful stop. Parser-only behaviour lives in
/// test_http.cpp.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "gateway/http_client.hpp"
#include "gateway/server.hpp"
#include "net/epoll_transport.hpp"
#include "net/realtime.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace dharma::gateway {
namespace {

dht::NodeConfig smallConfig() {
  dht::NodeConfig cfg;
  cfg.k = 8;
  cfg.alpha = 3;
  cfg.kStore = 3;
  cfg.rpcTimeoutUs = 2'000'000;
  return cfg;
}

/// Live overlay + gateway, all in-process. Teardown order is the contract
/// the daemon follows too: gateway first (workers block through the
/// runtime), then the executor, then the sockets.
struct GatewayFixture {
  net::RealTimeExecutor exec;
  net::EpollTransport transport{exec};
  crypto::CertificationService cs{"gw-test-secret"};
  core::RealTimeRuntime rt{exec, transport};
  obs::MetricsRegistry registry;
  obs::TraceRing traces{64};
  std::unique_ptr<obs::MetricsSampler> sampler;
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;
  std::unique_ptr<core::DharmaClient> client;
  std::unique_ptr<GatewayServer> server;

  explicit GatewayFixture(usize n = 3, GatewayConfig cfg = GatewayConfig{}) {
    exec.start();
    dht::NodeConfig nodeCfg = smallConfig();
    nodeCfg.metrics = &registry;
    nodeCfg.traces = &traces;
    for (usize i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          exec, transport, cs, cs.enroll("gw-user-" + std::to_string(i)),
          nodeCfg, 4000 + i));
      // Only node 0's RPC service times feed the registry: one process-wide
      // registry per daemon is the deployment shape being modelled.
      nodeCfg.metrics = nullptr;
      nodeCfg.traces = nullptr;
    }
    for (usize i = 1; i < n; ++i) {
      dht::Contact seed = nodes[0]->contact();
      rt.awaitDone([&](std::function<void()> done) {
        nodes[i]->join(seed, std::move(done));
      });
    }
    core::DharmaConfig ccfg;
    ccfg.cacheEnabled = true;
    ccfg.metrics = &registry;
    ccfg.traces = &traces;
    client = std::make_unique<core::DharmaClient>(rt, *nodes[0], ccfg);
    sampler = std::make_unique<obs::MetricsSampler>(exec, registry);

    cfg.port = 0;  // ephemeral
    GatewayServer::Deps deps;
    deps.client = client.get();
    deps.metrics = &registry;
    deps.sampler = sampler.get();
    deps.traces = &traces;
    server = std::make_unique<GatewayServer>(cfg, deps);
    EXPECT_EQ(server->start(), StartError::kNone) << server->startDetail();
  }

  ~GatewayFixture() {
    server->stop();
    exec.stop();
    transport.close();
  }

  void connect(HttpClient& c) {
    ASSERT_TRUE(c.connect("127.0.0.1", server->port()));
  }
};

TEST(Gateway, PutTagSearchResolveRoundTrip) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);

  auto put = c.request("PUT", "/resources/song1?tag=rock&tag=indie",
                       "http://example.com/song1");
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status, 200);
  EXPECT_NE(put->body.find("\"resource\":\"song1\""), std::string::npos);
  EXPECT_NE(put->body.find("\"cost\""), std::string::npos);

  auto post = c.request("POST", "/resources/song1/tags", "jazz\nfunk\n");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->status, 200);

  auto search = c.request("GET", "/search?tag=rock&steps=2");
  ASSERT_TRUE(search.has_value());
  EXPECT_EQ(search->status, 200);
  EXPECT_NE(search->body.find("\"tag\":\"rock\""), std::string::npos);
  EXPECT_NE(search->body.find("\"hops\":["), std::string::npos);
  EXPECT_NE(search->body.find("song1"), std::string::npos);

  auto res = c.request("GET", "/resolve/song1");
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 200);
  EXPECT_NE(res->body.find("http://example.com/song1"), std::string::npos);
}

TEST(Gateway, ErrorTaxonomyOnTheWire) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);

  auto missing = c.request("GET", "/resolve/ghost");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  EXPECT_NE(missing->body.find("\"error\":\"not-found\""), std::string::npos);

  auto noRoute = c.request("GET", "/nope");
  ASSERT_TRUE(noRoute.has_value());
  EXPECT_EQ(noRoute->status, 404);
  EXPECT_NE(noRoute->body.find("\"error\":\"no-such-route\""),
            std::string::npos);

  auto badMethod = c.request("DELETE", "/stats");
  ASSERT_TRUE(badMethod.has_value());
  EXPECT_EQ(badMethod->status, 405);
  ASSERT_TRUE(badMethod->header("allow").has_value());
  EXPECT_EQ(*badMethod->header("allow"), "GET");

  auto badSteps = c.request("GET", "/search?tag=x&steps=zap");
  ASSERT_TRUE(badSteps.has_value());
  EXPECT_EQ(badSteps->status, 400);
  EXPECT_NE(badSteps->body.find("bad-steps-parameter"), std::string::npos);

  auto noTag = c.request("GET", "/search");
  ASSERT_TRUE(noTag.has_value());
  EXPECT_EQ(noTag->status, 400);
  EXPECT_NE(noTag->body.find("missing-tag-parameter"), std::string::npos);

  auto emptyBody = c.request("PUT", "/resources/r9");
  ASSERT_TRUE(emptyBody.has_value());
  EXPECT_EQ(emptyBody->status, 400);
  EXPECT_NE(emptyBody->body.find("empty-body"), std::string::npos);
}

TEST(Gateway, KeepAliveServesManyRequestsOnOneConnection) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);
  for (int i = 0; i < 20; ++i) {
    auto r = c.request("GET", "/stats");
    ASSERT_TRUE(r.has_value()) << "request " << i;
    EXPECT_EQ(r->status, 200);
  }
  GatewayCounters g = f.server->counters();
  EXPECT_EQ(g.connectionsAccepted, 1u)
      << "keep-alive must reuse the single TCP connection";
}

TEST(Gateway, PipeliningPreservesResponseOrder) {
  GatewayFixture f;
  {
    HttpClient seed;
    f.connect(seed);
    auto r1 = seed.request("PUT", "/resources/a?tag=t", "uri://a");
    auto r2 = seed.request("PUT", "/resources/b?tag=t", "uri://b");
    ASSERT_TRUE(r1 && r2);
  }
  HttpClient c;
  f.connect(c);
  ASSERT_TRUE(c.sendRaw(
      "GET /resolve/a HTTP/1.1\r\nHost: g\r\n\r\n"
      "GET /resolve/b HTTP/1.1\r\nHost: g\r\n\r\n"
      "GET /nope HTTP/1.1\r\nHost: g\r\n\r\n"));
  auto a = c.readResponse();
  auto b = c.readResponse();
  auto n = c.readResponse();
  ASSERT_TRUE(a && b && n);
  EXPECT_NE(a->body.find("uri://a"), std::string::npos);
  EXPECT_NE(b->body.find("uri://b"), std::string::npos);
  EXPECT_EQ(n->status, 404);
}

TEST(Gateway, ParseErrorYields400AndCloses) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);
  ASSERT_TRUE(c.sendRaw("THIS IS NOT HTTP\r\n\r\n"));
  auto r = c.readResponse();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 400);
  ASSERT_TRUE(r->header("connection").has_value());
  EXPECT_EQ(*r->header("connection"), "close");
  // The server closes after the error response: the next read fails.
  EXPECT_FALSE(c.readResponse().has_value());
}

TEST(Gateway, OversizeBodyRejectedWith413) {
  GatewayConfig cfg;
  cfg.limits.maxBodyBytes = 64;
  GatewayFixture f(1, cfg);
  HttpClient c;
  f.connect(c);
  auto r = c.request("PUT", "/resources/big", std::string(1024, 'x'));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 413);
  EXPECT_NE(r->body.find("body-too-large"), std::string::npos);
}

TEST(Gateway, ExpectContinueGetsInterimThenFinal) {
  GatewayFixture f(1);
  HttpClient c;
  f.connect(c);
  // HttpClient::readResponse skips 1xx, so a success here proves the
  // interim 100 didn't confuse framing and the final response arrived.
  ASSERT_TRUE(c.sendRaw(
      "PUT /resources/e1?tag=t HTTP/1.1\r\nHost: g\r\n"
      "Expect: 100-continue\r\nContent-Length: 8\r\n\r\nuri://e1"));
  auto r = c.readResponse();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
}

TEST(Gateway, StatsAndMetricsShapes) {
  GatewayFixture f(1);
  HttpClient c;
  f.connect(c);
  auto stats = c.request("GET", "/stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"gateway\":{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"byRoute\""), std::string::npos);

  auto metrics = c.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  ASSERT_TRUE(metrics->header("content-type").has_value());
  EXPECT_NE(metrics->header("content-type")->find("text/plain"),
            std::string::npos);
  EXPECT_NE(
      metrics->body.find("# TYPE dharma_gateway_requests_total counter"),
      std::string::npos);
  EXPECT_NE(metrics->body.find("dharma_gateway_responses_total{route="),
            std::string::npos);
}

TEST(Gateway, MetricsNamesStayBackwardCompatible) {
  // The registry migration must not rename anything a dashboard scrapes:
  // every dharma_gateway_* family PR 8 exposed is still here, still typed.
  GatewayFixture f(1);
  HttpClient c;
  f.connect(c);
  auto metrics = c.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  for (const char* family : {
           "dharma_gateway_connections_accepted_total",
           "dharma_gateway_connections_closed_total",
           "dharma_gateway_connections_rejected_total",
           "dharma_gateway_requests_total",
           "dharma_gateway_responses_total",
           "dharma_gateway_parse_errors_total",
           "dharma_gateway_overload_rejected_total",
           "dharma_gateway_drain_rejected_total",
           "dharma_gateway_bytes_in_total",
           "dharma_gateway_bytes_out_total",
       }) {
    EXPECT_NE(metrics->body.find(std::string("# TYPE ") + family + " counter"),
              std::string::npos)
        << family;
  }
}

TEST(Gateway, ScrapeShowsEngineAndRouteHistogramsAfterTraffic) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);

  // Drive real traffic through every layer the histograms instrument.
  auto put = c.request("PUT", "/resources/h1?tag=rock", "http://x/h1");
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status, 200);
  auto res = c.request("GET", "/resolve/h1");
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 200);

  auto metrics = c.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  const std::string& body = metrics->body;

  // Client op latency: the PUT ran an insert, the GET a resolve.
  EXPECT_NE(body.find("# TYPE dharma_client_op_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("dharma_client_op_latency_us_count{op=\"insert\","
                      "result=\"ok\"} 1"),
            std::string::npos);
  // Node RPC service time: the overlay served store/find RPCs for those ops.
  EXPECT_NE(body.find("# TYPE dharma_node_rpc_service_us histogram"),
            std::string::npos);
  const usize rpcCountPos = body.find("dharma_node_rpc_service_us_count");
  ASSERT_NE(rpcCountPos, std::string::npos);
  // Per-route latency: the PUT and GET each landed in their route's series.
  EXPECT_NE(body.find("# TYPE dharma_gateway_route_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("dharma_gateway_route_latency_us_count{"
                      "route=\"put_resource\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("dharma_gateway_route_latency_us_count{"
                      "route=\"resolve\"} 1"),
            std::string::npos);
  // Lookup hop counts from the client-driven lookups.
  EXPECT_NE(body.find("# TYPE dharma_node_lookup_hops histogram"),
            std::string::npos);
}

TEST(Gateway, StatsCarriesRegistryMetricsAndSamples) {
  GatewayFixture f(1);
  HttpClient c;
  f.connect(c);
  // Two on-demand samples so /stats has a ring to show.
  f.rt.awaitDone([&](std::function<void()> done) {
    (void)f.sampler->sampleNow();
    (void)f.sampler->sampleNow();
    done();
  });
  auto stats = c.request("GET", "/stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"samples\":[{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"seq\":2"), std::string::npos);
  // The same series ids appear in both the Prometheus and JSON surfaces —
  // the "no counter reachable from only one surface" contract.
  EXPECT_NE(stats->body.find("dharma_gateway_requests_total"),
            std::string::npos);
}

TEST(Gateway, DebugTracesExposesCompletedSpans) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);
  auto put = c.request("PUT", "/resources/t1?tag=jazz", "http://x/t1");
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->status, 200);

  auto tr = c.request("GET", "/debug/traces");
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->status, 200);
  EXPECT_NE(tr->body.find("\"total_completed\":"), std::string::npos);
  EXPECT_NE(tr->body.find("\"kind\":\"client-op\""), std::string::npos);
  EXPECT_NE(tr->body.find("\"kind\":\"lookup\""), std::string::npos);
  EXPECT_NE(tr->body.find("\"rpc-sent\""), std::string::npos);
}

TEST(Gateway, DebugTracesWithoutRingIs404) {
  GatewayConfig cfg;
  cfg.port = 0;
  GatewayServer bare(cfg, {});
  ASSERT_EQ(bare.start(), StartError::kNone);
  {
    // Scoped so the connection closes before stop() — otherwise the
    // graceful drain waits out its full deadline on the idle keep-alive.
    HttpClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", bare.port()));
    auto tr = c.request("GET", "/debug/traces");
    ASSERT_TRUE(tr.has_value());
    EXPECT_EQ(tr->status, 404);
    EXPECT_NE(tr->body.find("tracing-disabled"), std::string::npos);
  }
  bare.stop();
}

TEST(Gateway, StartErrorPortInUseIsTyped) {
  GatewayConfig a;
  a.port = 0;
  GatewayServer first(a, {});
  ASSERT_EQ(first.start(), StartError::kNone);

  GatewayConfig b;
  b.port = first.port();
  GatewayServer second(b, {});
  EXPECT_EQ(second.start(), StartError::kBindInUse);
  EXPECT_FALSE(second.startDetail().empty());
  first.stop();
}

TEST(Gateway, StartErrorBadAddressIsTyped) {
  GatewayConfig cfg;
  cfg.bindHost = "999.1.2.3";
  GatewayServer s(cfg, {});
  EXPECT_EQ(s.start(), StartError::kBadAddress);
}

TEST(Gateway, GracefulStopIsIdempotentAndRefusesNewConnections) {
  GatewayFixture f(1);
  u16 port = f.server->port();
  {
    HttpClient c;
  f.connect(c);
    ASSERT_TRUE(c.request("GET", "/stats").has_value());
  }
  f.server->stop();
  f.server->stop();  // idempotent
  HttpClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", port))
      << "listener must be gone after stop()";
}

TEST(Gateway, SearchWalkFollowsRelatedTags) {
  GatewayFixture f;
  HttpClient c;
  f.connect(c);
  // Build a chain: rock -> indie (co-tag), indie -> shoegaze.
  ASSERT_TRUE(c.request("PUT", "/resources/r1?tag=rock&tag=indie", "u://1"));
  ASSERT_TRUE(c.request("PUT", "/resources/r2?tag=indie&tag=shoegaze",
                        "u://2"));
  auto r = c.request("GET", "/search?tag=rock&steps=3");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  // The walk reaches indie via rock, then shoegaze via indie.
  EXPECT_NE(r->body.find("\"tag\":\"indie\""), std::string::npos);
  EXPECT_NE(r->body.find("\"tag\":\"shoegaze\""), std::string::npos);
}

}  // namespace
}  // namespace dharma::gateway
