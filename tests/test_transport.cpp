/// Cross-transport conformance suite: the SAME join → put → get → tag test
/// body runs against the deterministic SimTransport/SimExecutor pair,
/// against real loopback-UDP sockets (EpollTransport) under the
/// RealTimeExecutor, and against a two-shard ShardedExecutor where nodes
/// live on different loop threads. What it proves is the tentpole claim of
/// the transport refactor: KademliaNode, DharmaClient and friends contain
/// no simulation-isms — identical protocol code, identical cost
/// identities, on every runtime.
///
/// Plus DatagramTransport units on EpollTransport: MTU rejection, peer
/// resolution, drop rules, handler swap, close semantics, and the
/// close-latency regression pin (an earlier receive loop ticked a 200 ms
/// poll timeout; wakeups are event-driven and close() must not wait a tick
/// out).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "net/datagram.hpp"
#include "net/epoll_transport.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/realtime.hpp"
#include "net/sharded.hpp"
#include "net/simulator.hpp"

namespace dharma {
namespace {

dht::NodeConfig smallConfig() {
  dht::NodeConfig cfg;
  cfg.k = 8;
  cfg.alpha = 3;
  cfg.kStore = 3;
  // Generous against loaded CI machines; nothing times out on loopback.
  cfg.rpcTimeoutUs = 2'000'000;
  return cfg;
}

/// Deterministic backend: virtual time, simulated datagrams.
struct SimBackend {
  net::Simulator sim;
  net::ConstantLatency latency{2000};
  net::Network net{sim, latency, net::Network::Config{}, /*seed=*/99};
  crypto::CertificationService cs{"conformance-secret"};
  core::SimRuntime rt{sim, net};
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;

  void makeNodes(usize n) {
    for (usize i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          sim, net, cs, cs.enroll("user-" + std::to_string(i)), smallConfig(),
          1000 + i));
    }
  }
  core::Runtime& runtimeFor(usize) { return rt; }
};

/// Wall-clock backend: loopback UDP sockets (epoll/recvmmsg), single loop.
struct EpollBackend {
  net::RealTimeExecutor exec;
  net::EpollTransport transport{exec};
  crypto::CertificationService cs{"conformance-secret"};
  core::RealTimeRuntime rt{exec, transport};
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;

  EpollBackend() { exec.start(); }
  ~EpollBackend() {
    exec.stop();
    transport.close();
  }

  void makeNodes(usize n) {
    for (usize i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          exec, transport, cs, cs.enroll("user-" + std::to_string(i)),
          smallConfig(), 1000 + i));
    }
  }
  core::Runtime& runtimeFor(usize) { return rt; }
};

/// Two shards, epoll delivery: node i lives on shard i % 2, so every
/// cross-node RPC in the conformance body crosses loop threads, and every
/// blocking wait goes through the owning node's shard runtime. This is the
/// daemon topology in miniature, with the Debug affinity checker armed.
struct ShardedEpollBackend {
  net::ShardedExecutor execs{2};
  std::unique_ptr<net::DatagramTransport> transport =
      net::makeDatagramTransport(net::NetBackend::kEpoll, execs.shard(0),
                                 net::UdpConfig{});
  crypto::CertificationService cs{"conformance-secret"};
  core::ShardedRuntime rt{execs, *transport};
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes;

  ShardedEpollBackend() { execs.start(); }
  ~ShardedEpollBackend() {
    execs.stop();
    transport->close();
  }

  void makeNodes(usize n) {
    for (usize i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<dht::KademliaNode>(
          execs.shard(execs.shardOf(i)), *transport, cs,
          cs.enroll("user-" + std::to_string(i)), smallConfig(), 1000 + i));
    }
  }
  core::Runtime& runtimeFor(usize i) { return rt.forShard(execs.shardOf(i)); }
};

template <typename Backend>
class TransportConformance : public ::testing::Test {};

using Backends =
    ::testing::Types<SimBackend, EpollBackend, ShardedEpollBackend>;
TYPED_TEST_SUITE(TransportConformance, Backends, );

/// Boots \p b with \p n joined nodes (everyone bootstraps through node 0).
/// Each join waits on the joining node's OWN runtime — under the sharded
/// backend the launch must run on that node's shard, not anyone else's.
template <typename Backend>
void boot(Backend& b, usize n) {
  b.makeNodes(n);
  for (usize i = 1; i < n; ++i) {
    dht::Contact seed = b.nodes[0]->contact();
    b.runtimeFor(i).awaitDone([&](std::function<void()> done) {
      b.nodes[i]->join(seed, std::move(done));
    });
  }
}

TYPED_TEST(TransportConformance, JoinPopulatesRoutingTables) {
  TypeParam b;
  boot(b, 5);
  for (usize i = 0; i < 5; ++i) {
    EXPECT_GT(b.nodes[i]->routing().size(), 0u)
        << "node " << i << " learned nobody during bootstrap";
  }
}

TYPED_TEST(TransportConformance, PutReplicatesAndGetMerges) {
  TypeParam b;
  boot(b, 5);

  dht::NodeId key = dht::NodeId::fromString("conformance-block");
  dht::StoreToken token{dht::TokenKind::kIncrement, "entry", 5, {}};
  auto pr = core::awaitResult<dht::PutResult>(
      b.runtimeFor(1), [&](std::function<void(dht::PutResult)> done) {
        b.nodes[1]->put(key, token, std::move(done));
      });
  EXPECT_TRUE(pr.fullyReplicated())
      << "acks=" << pr.acks << " intended=" << pr.intended;

  auto gr = core::awaitResult<dht::GetResult>(
      b.runtimeFor(4), [&](std::function<void(dht::GetResult)> done) {
        b.nodes[4]->get(key, dht::GetOptions{}, std::move(done));
      });
  ASSERT_TRUE(gr.found());
  ASSERT_EQ(gr.view->entries.size(), 1u);
  EXPECT_EQ(gr.view->entries[0].name, "entry");
  EXPECT_EQ(gr.view->entries[0].weight, 5u);
  EXPECT_EQ(gr.rpcFailures, 0u);
}

TYPED_TEST(TransportConformance, LargeBatchSplitsAcrossMtuChunks) {
  TypeParam b;
  boot(b, 5);

  // ~100 tokens * ~60 wire bytes >> 1400-byte MTU: putMany must chunk the
  // STORE batch on every transport, and the merged view must come back
  // complete.
  dht::NodeId key = dht::NodeId::fromString("big-block");
  std::vector<dht::StoreToken> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(dht::StoreToken{
        dht::TokenKind::kIncrement,
        "entry-with-a-reasonably-long-name-" + std::to_string(i), 1, {}});
  }
  auto pr = core::awaitResult<dht::PutResult>(
      b.runtimeFor(2), [&](std::function<void(dht::PutResult)> done) {
        b.nodes[2]->putMany(key, tokens, std::move(done));
      });
  EXPECT_GE(pr.acks, 1u);

  dht::GetOptions all;
  all.topN = 0;
  all.maxBytes = 0;
  auto gr = core::awaitResult<dht::GetResult>(
      b.runtimeFor(3), [&](std::function<void(dht::GetResult)> done) {
        b.nodes[3]->get(key, all, std::move(done));
      });
  ASSERT_TRUE(gr.found());
  // Index-side filtering may trim a single reply to the MTU, but the
  // stored block itself must hold every entry of every chunk.
  EXPECT_EQ(gr.view->totalEntries, 100u);
}

TYPED_TEST(TransportConformance, ClientProtocolAndCostIdentities) {
  TypeParam b;
  boot(b, 5);

  core::DharmaConfig ccfg;  // defaults: approx A+B, k = 1
  core::DharmaClient client(b.runtimeFor(2), *b.nodes[2], ccfg);

  auto ins = client.insertResource("res", "uri://res", {"rock", "jazz"});
  ASSERT_TRUE(ins.ok()) << "insert failed";
  EXPECT_EQ(ins.cost.lookups, 2u + 2u * 2u);  // Table I: 2 + 2m

  auto tag = client.tagResource("res", "blues");
  ASSERT_TRUE(tag.ok()) << "tag failed";
  EXPECT_EQ(tag.cost.lookups, 4u + ccfg.k);  // Table I: 4 + k

  auto step = client.searchStep("rock");
  ASSERT_TRUE(step.ok()) << "searchStep failed";
  bool sawRes = false;
  for (const auto& e : step.val->resources) sawRes |= e.name == "res";
  EXPECT_TRUE(sawRes) << "search step did not surface the resource";
  EXPECT_EQ(step.cost.lookups, 2u);  // Table I: 2 per navigation step

  auto uri = client.resolveUri("res");
  ASSERT_TRUE(uri.ok());
  EXPECT_EQ(*uri.val, "uri://res");
  EXPECT_EQ(uri.cost.lookups, 1u);

  EXPECT_EQ(client.counters().failures, 0u);
}

// ---------------------------------------------------------------------------
// DatagramTransport units on EpollTransport.
// ---------------------------------------------------------------------------

template <typename Transport>
class DatagramTransportConformance : public ::testing::Test {
 protected:
  net::RealTimeExecutor exec;
  Transport t{exec};

  DatagramTransportConformance() { exec.start(); }
  ~DatagramTransportConformance() override {
    exec.stop();
    t.close();
  }
};

using DatagramBackends = ::testing::Types<net::EpollTransport>;
TYPED_TEST_SUITE(DatagramTransportConformance, DatagramBackends, );

TYPED_TEST(DatagramTransportConformance, OversizePayloadRejectedSynchronously) {
  auto& t = this->t;
  net::Address a = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  net::Address bAddr = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  EXPECT_FALSE(t.send(a, bAddr, std::vector<u8>(t.mtuBytes() + 1, 0x7f)));
  EXPECT_EQ(t.stats().droppedOversize, 1u);
  EXPECT_TRUE(t.send(a, bAddr, std::vector<u8>(64, 0x7f)));
}

TEST(EpollTransport, ResolvePeerParsesAnyNumericIpv4) {
  constexpr u32 kLoopbackIp = 0x7F000001;  // 127.0.0.1 in host order
  net::RealTimeExecutor exec;
  net::EpollTransport t(exec);

  auto r = t.resolvePeer("127.0.0.1:9000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.addr, net::makeAddress(kLoopbackIp, 9000));

  r = t.resolvePeer("localhost:1234");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.addr, net::makeAddress(kLoopbackIp, 1234));

  // Bare port: host defaults to the bind host.
  r = t.resolvePeer("4000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.addr, net::makeAddress(kLoopbackIp, 4000));

  // Foreign hosts are real addresses now, not silently null (the PR 5
  // regression this suite pins): any numeric IPv4 resolves.
  r = t.resolvePeer("10.0.0.1:9000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.addr, net::makeAddress(0x0A000001, 9000));
  EXPECT_EQ(net::formatAddress(r.addr), "10.0.0.1:9000");
}

TEST(EpollTransport, ResolvePeerSurfacesTypedErrors) {
  net::RealTimeExecutor exec;
  net::EpollTransport t(exec);

  auto r = t.resolvePeer("not-a-host:9000");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, net::PeerResolution::Error::kBadHost);
  EXPECT_STREQ(r.errorName(), "bad-host");
  EXPECT_EQ(r.addr, net::kNullAddress);

  for (const char* bad : {"127.0.0.1:notaport", "127.0.0.1:0",
                          "127.0.0.1:70000", "127.0.0.1:"}) {
    r = t.resolvePeer(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error, net::PeerResolution::Error::kBadPort) << bad;
  }
}

TYPED_TEST(DatagramTransportConformance, EndpointAddressCarriesBindIpAndPort) {
  auto& t = this->t;
  net::Address a = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  EXPECT_EQ(net::addressIp(a), 0x7F000001u) << "default bind host is loopback";
  EXPECT_GT(net::addressPort(a), 0u);
  EXPECT_EQ(net::formatAddress(a),
            "127.0.0.1:" + std::to_string(net::addressPort(a)));
}

TYPED_TEST(DatagramTransportConformance, DropRulesPartitionBothDirections) {
  auto& t = this->t;
  std::atomic<int> delivered{0};
  std::promise<void> controlArrived;
  net::Address a = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  net::Address b = t.registerEndpoint(
      [&](net::Address, const std::vector<u8>& data) {
        delivered.fetch_add(1);
        if (data.size() == 1 && data[0] == 0xEE) controlArrived.set_value();
      });

  // Outbound rule: datagrams TO a dropped peer vanish (send still "works",
  // exactly like real loss in a partition).
  t.dropPeer(b);
  EXPECT_TRUE(t.send(a, b, {1}));
  EXPECT_EQ(t.droppedPeerCount(), 1u);
  ASSERT_TRUE(t.undropPeer(b));
  EXPECT_FALSE(t.undropPeer(b));  // second removal: rule already gone

  // Inbound rule: datagrams FROM a dropped peer are discarded at receive.
  // The rule stays installed while a control datagram from an UN-dropped
  // third endpoint chases the doomed one into b's socket buffer: loopback
  // sendto queues synchronously, so by the time the control is handled the
  // {2} datagram has already been through the receive path — dropped, not
  // merely late.
  net::Address c = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  t.dropPeer(a);
  EXPECT_TRUE(t.send(a, b, {2}));
  EXPECT_TRUE(t.send(c, b, {0xEE}));
  auto fut = controlArrived.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(t.stats().droppedByRule, 2u);
  EXPECT_EQ(t.clearDroppedPeers(), 1u);
}

TYPED_TEST(DatagramTransportConformance, DeliversDatagramToHandlerOnExecutor) {
  auto& t = this->t;
  std::promise<std::pair<net::Address, std::vector<u8>>> got;
  net::Address sender = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  net::Address receiver = t.registerEndpoint(
      [&](net::Address from, const std::vector<u8>& data) {
        got.set_value({from, data});
      });
  ASSERT_TRUE(t.send(sender, receiver, {1, 2, 3, 4}));
  auto fut = got.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  auto [from, data] = fut.get();
  EXPECT_EQ(from, sender);  // source resolved to the sending endpoint's port
  EXPECT_EQ(data, (std::vector<u8>{1, 2, 3, 4}));
}

TYPED_TEST(DatagramTransportConformance, SetHandlerSwapsReceiver) {
  auto& t = this->t;
  net::Address sender = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  std::promise<int> got;
  net::Address receiver = t.registerEndpoint(
      [&](net::Address, const std::vector<u8>&) { got.set_value(1); });
  t.setHandler(receiver, [&](net::Address, const std::vector<u8>&) {
    got.set_value(2);
  });
  ASSERT_TRUE(t.send(sender, receiver, {9}));
  auto fut = got.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(fut.get(), 2);  // the swapped-in handler got the datagram
}

TYPED_TEST(DatagramTransportConformance, CloseIsIdempotentAndStopsSends) {
  auto& t = this->t;
  net::Address a = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  t.close();
  t.close();  // idempotent
  EXPECT_FALSE(t.send(a, a, {1}));
  EXPECT_FALSE(t.isOnline(a));
}

// Regression pin for the event-driven receive loop: the old implementation
// slept in poll() with a 200 ms timeout and close() could eat a whole tick
// waiting for the loop to notice. Wakeups are self-pipe/eventfd driven now,
// so close() — measured from a receive thread that is definitely parked in
// its wait — must return in far less than one old tick, even on a loaded
// CI machine.
TYPED_TEST(DatagramTransportConformance, CloseDoesNotWaitAPollTickOut) {
  auto& t = this->t;
  std::promise<void> delivered;
  net::Address sender = t.registerEndpoint([](net::Address, const std::vector<u8>&) {});
  net::Address receiver = t.registerEndpoint(
      [&](net::Address, const std::vector<u8>&) { delivered.set_value(); });
  ASSERT_TRUE(t.send(sender, receiver, {1}));
  ASSERT_EQ(delivered.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  // The receive thread has processed the datagram and is back in (or headed
  // into) its indefinite wait: exactly the state the old code escaped only
  // via timeout.
  auto t0 = std::chrono::steady_clock::now();
  t.close();
  auto closeMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_LT(closeMs, 150.0) << "close() latency regressed toward the old "
                               "200 ms poll-tick floor";
}

}  // namespace
}  // namespace dharma
