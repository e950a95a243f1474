/// \file engine_workloads.cpp
/// \brief The in-process workloads (engine_mix on a live loopback cluster,
/// replay_sim on the deterministic simulator), the EngineRig they and the
/// HTTP probes share, and the probe phase.

#include <future>
#include <iostream>
#include <map>
#include <thread>

#include "core/keys.hpp"
#include "dht/dht_network.hpp"
#include "dht/rpc.hpp"
#include "dht/storage.hpp"
#include "net/realtime.hpp"
#include "workload/dataset.hpp"
#include "workload/driver.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace bench {

using namespace dharma;

void SetupTimes::report(MetricSet& L) const {
  L.set("workload.synth_ms", synthMs, "ms");
  L.set("workload.trace_ms", traceMs, "ms");
  L.set("workload.preload_ms", preloadMs, "ms");
  L.set("dht.bootstrap_ms", bootMs, "ms");
}

void SetupTimes::addSpans(SpanLog& spans) const {
  const std::pair<const char*, double> phases[] = {
      {"setup.synth", synthMs}, {"setup.trace", traceMs},
      {"setup.boot", bootMs}, {"setup.preload", preloadMs}};
  i64 t = startNs;
  i64 total = 0;
  for (const auto& [name, ms] : phases) total += static_cast<i64>(ms * 1e6);
  u64 root = spans.add(0, "setup", 0, 0, startNs, startNs + total);
  for (const auto& [name, ms] : phases) {
    i64 d = static_cast<i64>(ms * 1e6);
    spans.add(0, name, root, 0, t, t + d);
    t += d;
  }
}

// ---------------------------------------------------------------------------
// EngineRig
// ---------------------------------------------------------------------------

EngineRig::EngineRig(usize n, usize shards)
    : execs(net::ShardedExecutor::Config{shards, &registry}),
      transport(net::makeDatagramTransport(
          net::defaultNetBackend(), execs.shard(0),
          net::UdpConfig{"127.0.0.1", 1400, &registry})),
      cs("bench-e2e-secret"),
      rt(execs, *transport) {
  execs.start();
  dht::NodeConfig nodeCfg;
  nodeCfg.metrics = &registry;
  for (usize i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<dht::KademliaNode>(
        execs.shard(execs.shardOf(i)), *transport, cs,
        cs.enroll("e2e-" + std::to_string(i)), nodeCfg, 42 + i));
  }
  for (usize i = 1; i < n; ++i) {
    dht::Contact seedContact = nodes[0]->contact();
    rtFor(i).awaitDone([&](std::function<void()> done) {
      nodes[i]->join(seedContact, std::move(done));
    });
  }
}

EngineRig::~EngineRig() {
  // Loops first, so no callback runs against a node being destroyed.
  execs.stop();
  transport->close();
  nodes.clear();
}

std::vector<NodeSnapshot> EngineRig::snapshot() {
  std::vector<NodeSnapshot> out(nodes.size());
  for (usize i = 0; i < nodes.size(); ++i) {
    rtFor(i).awaitDone([&](std::function<void()> done) {
      out[i] = {nodes[i]->counters(), nodes[i]->store().tokensApplied()};
      done();
    });
  }
  return out;
}

bool preloadRig(EngineRig& rig, const ProbeInputs& in) {
  core::DharmaClient loader(rig.rtFor(0), *rig.nodes[0], {}, 42);
  for (usize r = 0; r < in.resources.size(); ++r) {
    if (!loader.insertResource(in.resources[r], "uri://" + in.resources[r],
                               in.tags[r])
             .ok()) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shared per-layer readers and probes
// ---------------------------------------------------------------------------

void layersFromScrape(const Scrape& d, double wallNs, MetricSet& L) {
  auto p = [&](const char* prefix, double q) { return d.hist(prefix).quantile(q); };
  L.set("core.block_us.get.p50", p("dharma_client_block_latency_us{op=\"get\"", 0.5), "us");
  L.set("core.block_us.put.p50", p("dharma_client_block_latency_us{op=\"put\"", 0.5), "us");
  L.set("dht.lookup_us.value.p50", p("dharma_node_lookup_latency_us{kind=\"value\"", 0.5), "us");
  L.set("dht.lookup_us.node.p50", p("dharma_node_lookup_latency_us{kind=\"node\"", 0.5), "us");
  L.set("dht.lookup_hops.value.mean",
        histMean(d.hist("dharma_node_lookup_hops{kind=\"value\"")), "rpcs");
  L.set("dht.lookup_hops.node.mean",
        histMean(d.hist("dharma_node_lookup_hops{kind=\"node\"")), "rpcs");
  L.set("dht.rpc_service_us.find_value.p50",
        p("dharma_node_rpc_service_us{rpc=\"find_value\"", 0.5), "us");
  L.set("dht.rpc_service_us.find_node.p50",
        p("dharma_node_rpc_service_us{rpc=\"find_node\"", 0.5), "us");
  L.set("dht.rpc_service_us.store.p50", p("dharma_node_rpc_service_us{rpc=\"store\"", 0.5), "us");
  L.set("net.udp_send_us.p50", p("dharma_udp_send_us", 0.5), "us");
  L.set("net.recv_batch.mean", histMean(d.hist("dharma_udp_recv_batch_datagrams")),
        "datagrams");
  L.set("net.shard_run_us.p50", p("dharma_node_shard_task_run_us", 0.5), "us");
  L.set("net.shard_wait_us.p99", p("dharma_node_shard_task_wait_us", 0.99), "us");
  double maxBusy = 0, maxTasks = 0, sumTasks = 0;
  auto shards = d.histSeries("dharma_node_shard_task_run_us");
  for (const auto& h : shards) {
    maxBusy = std::max(maxBusy, ratio(static_cast<double>(h.sum), wallNs / 1e3));
    maxTasks = std::max(maxTasks, static_cast<double>(h.count()));
    sumTasks += static_cast<double>(h.count());
  }
  L.set("net.shard_busy_ratio.max", maxBusy, "ratio");
  L.set("net.shard_tasks.max_over_mean",
        shards.empty() ? 0.0 : ratio(maxTasks, sumTasks / static_cast<double>(shards.size())),
        "ratio");
}

namespace {

/// Per-layer metrics from every node's snapshot over a measured window.
void layersFromNodes(const std::vector<NodeSnapshot>& a,
                     const std::vector<NodeSnapshot>& b, const Scrape& d,
                     double ops, MetricSet& L) {
  double rpcs = 0, timeouts = 0, quorum = 0, dedup = 0, maxTokens = 0, sumTokens = 0;
  for (usize i = 0; i < a.size(); ++i) {
    auto delta = [&](u64 dht::NodeCounters::*f) {
      return static_cast<double>(b[i].counters.*f - a[i].counters.*f);
    };
    rpcs += delta(&dht::NodeCounters::rpcsSent);
    timeouts += delta(&dht::NodeCounters::timeouts);
    quorum += delta(&dht::NodeCounters::putQuorumFailures);
    dedup += delta(&dht::NodeCounters::storesDeduplicated);
    double tokens = static_cast<double>(b[i].tokensApplied - a[i].tokensApplied);
    maxTokens = std::max(maxTokens, tokens);
    sumTokens += tokens;
  }
  // Requests and replies: the counters do not tell them apart.
  L.set("dht.rpcs_per_op", ratio(rpcs, ops), "rpcs/op");
  L.set("dht.timeouts_per_kop", ratio(timeouts * 1e3, ops), "1/kop");
  L.set("dht.put_quorum_failures", quorum, "count");
  // Base: every STORE request served in the window, on any node.
  L.set("dht.stores_dedup_ratio",
        ratio(dedup, static_cast<double>(
                         d.hist("dharma_node_rpc_service_us{rpc=\"store\"").count())),
        "ratio");
  // Write load of the busiest replica against the mean: the paper's
  // concern that popular tags' blocks concentrate on a few nodes.
  L.set("dht.hotspot_ratio",
        a.empty() ? 0.0 : ratio(maxTokens, sumTokens / static_cast<double>(a.size())),
        "ratio");
}

dht::StoreReq storeReqFor(const std::string& res, const std::vector<std::string>& tags) {
  dht::StoreReq req;
  req.key = core::blockKey(res, core::BlockType::kResourceTags);
  req.putId = 1;
  for (const auto& t : tags) {
    req.tokens.push_back(dht::StoreToken{dht::TokenKind::kIncrement, t, 1, {}});
  }
  return req;
}

/// One ping-pong chain of 512-byte datagrams between two endpoints of a
/// bench-owned transport; returns the round-trip median in µs.
double probeUdpRttUs() {
  constexpr usize kRounds = 2000;
  net::RealTimeExecutor exec;
  exec.start();
  auto tr = net::makeDatagramTransport(net::defaultNetBackend(), exec,
                                       net::UdpConfig{"127.0.0.1", 1400, nullptr});
  const std::vector<u8> payload(512, 0xAB);
  std::vector<i64> stamps;
  stamps.reserve(kRounds + 1);
  std::promise<void> finished;
  net::Address a = net::kNullAddress, b = net::kNullAddress;
  b = tr->registerEndpoint([&](net::Address from, const std::vector<u8>& data) {
    tr->send(b, from, data);
  });
  a = tr->registerEndpoint([&](net::Address, const std::vector<u8>&) {
    stamps.push_back(nowNs());
    if (stamps.size() > kRounds) {
      finished.set_value();
      return;
    }
    tr->send(a, b, payload);
  });
  exec.schedule(0, [&] {
    stamps.push_back(nowNs());
    tr->send(a, b, payload);
  });
  bool ok = finished.get_future().wait_for(std::chrono::seconds(10)) ==
            std::future_status::ready;
  exec.stop();
  tr->close();
  if (!ok) return 0.0;
  Samples rtt;
  for (usize i = 1; i < stamps.size(); ++i) {
    rtt.add(static_cast<double>(stamps[i] - stamps[i - 1]) / 1e3);
  }
  return rtt.quantile(0.5);
}

}  // namespace

void probeCommon(const ProbeInputs& in, MetricSet& L) {
  crypto::CertificationService cs("bench-e2e-probe");
  crypto::Credential cred = cs.enroll("probe-user");
  dht::Contact self{dht::NodeId::fromDigest(cred.nodeId),
                    net::makeAddress(0x7F000001, 40000)};
  std::vector<dht::StoreReq> stores;
  for (usize r = 0; r < in.resources.size(); ++r) {
    if (in.tags[r].empty()) continue;
    stores.push_back(storeReqFor(in.resources[r], in.tags[r]));
    stores.back().signature = cs.signContent(cred.userId, stores.back().key.toHex(),
                                             stores.back().canonicalBatch());
  }
  if (stores.empty()) return;

  // One envelope per request/reply type the protocol sends, with the
  // workload's payloads; the reply view is trimmed as a responder would.
  dht::BlockView hot;
  hot.entries = in.hotEntries;
  hot.totalEntries = hot.entries.size();
  hot.trim(dht::GetOptions{100, 1400 - 256, false});
  std::vector<dht::Contact> closest;
  for (u32 i = 0; i < 20; ++i) {
    closest.push_back({dht::NodeId::fromString("peer-" + std::to_string(i)),
                       net::makeAddress(0x7F000001, static_cast<u16>(41000 + i))});
  }
  std::vector<dht::Envelope> envs;
  auto env = [&](dht::RpcType t, std::vector<u8> body) {
    dht::Envelope e;
    e.type = t;
    e.rpcId = envs.size() + 1;
    e.sender = self;
    e.credential = cred;
    e.body = std::move(body);
    envs.push_back(std::move(e));
  };
  env(dht::RpcType::kFindNode, dht::FindNodeReq{stores[0].key}.encode());
  env(dht::RpcType::kFindNodeReply, dht::ContactsReply{closest}.encode());
  env(dht::RpcType::kFindValue, dht::FindValueReq{stores[0].key, 100, 0, false}.encode());
  {
    dht::FindValueReply rep;
    rep.found = true;
    rep.view = hot;
    env(dht::RpcType::kFindValueReply, rep.encode());
  }
  for (usize i = 0; i < std::min<usize>(stores.size(), 16); ++i) {
    env(dht::RpcType::kStore, stores[i].encode());
  }
  env(dht::RpcType::kStoreReply, dht::StoreReply{true}.encode());

  std::vector<std::vector<u8>> wire;
  for (const auto& e : envs) wire.push_back(e.encode());
  usize sink = 0;
  L.set("dht.envelope_encode_ns", timePerCallNs(7, 2000, [&](usize i) {
          sink += envs[i % envs.size()].encode().size();
        }), "ns");
  L.set("dht.envelope_decode_ns", timePerCallNs(7, 2000, [&](usize i) {
          sink += dht::Envelope::decode(wire[i % wire.size()]).has_value();
        }), "ns");

  usize tokens = 0;
  for (const auto& s : stores) tokens += s.tokens.size();
  double applyNs = timePerCallNs(5, 1, [&](usize) {
    dht::BlockStore store;
    for (const auto& s : stores) sink += store.applyAll(s.key, s.tokens, 1);
  });
  L.set("dht.store_apply_ns_per_token", applyNs / static_cast<double>(tokens), "ns");

  L.set("crypto.verify_credential_ns", timePerCallNs(7, 2000, [&](usize) {
          sink += cs.verify(cred, 0);
        }), "ns");
  std::vector<std::string> canon;
  for (const auto& s : stores) canon.push_back(s.canonicalBatch());
  L.set("crypto.sign_content_ns", timePerCallNs(7, 2000, [&](usize i) {
          const auto& s = stores[i % stores.size()];
          sink += cs.signContent(cred.userId, s.key.toHex(), canon[i % canon.size()])
                      .mac[0];
        }), "ns");
  L.set("crypto.verify_content_ns", timePerCallNs(7, 2000, [&](usize i) {
          const auto& s = stores[i % stores.size()];
          sink += cs.verifyContent(s.signature, s.key.toHex(), canon[i % canon.size()]);
        }), "ns");
  if (sink == 0) std::cerr << "# probe sink empty\n";  // keeps the work observable

  L.set("net.udp_rtt_us.p50", probeUdpRttUs(), "us");
}

void probeRig(EngineRig& rig, const ProbeInputs& in, MetricSet& L) {
  core::Runtime& rt0 = rig.rt.forShard(0);
  Samples await;
  for (int i = 0; i < 2000; ++i) {
    i64 t0 = nowNs();
    rt0.awaitDone([](std::function<void()> done) { done(); });
    await.add(static_cast<double>(nowNs() - t0) / 1e3);
  }
  L.set("core.await_us.p50", await.quantile(0.5), "us");

  // GET/PUT of the preloaded blocks from node 1, waiting on its own shard.
  dht::KademliaNode& node = *rig.nodes[1];
  core::Runtime& rt1 = rig.rtFor(1);
  Samples get, put;
  for (usize i = 0; i < 400; ++i) {
    usize r = i % in.resources.size();
    dht::NodeId key = core::blockKey(in.resources[r], core::BlockType::kResourceTags);
    i64 t0 = nowNs();
    rt1.awaitDone([&](std::function<void()> done) {
      node.get(key, dht::GetOptions{}, [done = std::move(done)](dht::GetResult) { done(); });
    });
    get.add(static_cast<double>(nowNs() - t0) / 1e3);
    std::vector<dht::StoreToken> tokens = storeReqFor(in.resources[r], in.tags[r]).tokens;
    dht::NodeId probeKey = dht::NodeId::fromString("e2e-probe-" + in.resources[r]);
    t0 = nowNs();
    rt1.awaitDone([&](std::function<void()> done) {
      node.putMany(probeKey, std::move(tokens),
                   [done = std::move(done)](dht::PutResult) { done(); });
    });
    put.add(static_cast<double>(nowNs() - t0) / 1e3);
  }
  L.set("dht.get_us.p50", get.quantile(0.5), "us");
  L.set("dht.put_us.p50", put.quantile(0.5), "us");
}

// ---------------------------------------------------------------------------
// engine_mix
// ---------------------------------------------------------------------------

namespace {

constexpr usize kMixNodes = 8;
constexpr usize kMixShards = 4;
constexpr usize kMixWorkers = 4;
constexpr usize kMixResources = 64;
constexpr double kMixLimitMs = 10.0;
/// The same small folksonomy bench_realtime_throughput preloads.
const std::vector<std::string> kMixTags = {"rock", "jazz", "metal", "electronic",
                                           "classic", "blues", "folk", "ambient",
                                           "punk", "soul"};

enum MixKind : u8 { kSearch = 0, kResolve = 1, kTag = 2 };
constexpr const char* kMixSpan[] = {"op.search_step", "op.resolve", "op.tag"};

struct MixOp {
  u8 kind = kSearch;
  u16 res = 0;
  u8 tag = 0;
};

struct MixWorld {
  std::unique_ptr<EngineRig> rig;
  ProbeInputs data;
  std::vector<std::vector<MixOp>> ops;  ///< per worker
  SetupTimes times;
};

std::unique_ptr<MixWorld> mixSetup(const BenchConfig& cfg, bool& ok) {
  auto w = std::make_unique<MixWorld>();
  i64 t0 = nowNs();
  w->times.startNs = t0;
  // One fixed folksonomy; the seed varies the workers' op streams.
  Rng rng(splitmix64(0x3E1Aull));
  for (usize r = 0; r < kMixResources; ++r) {
    w->data.resources.push_back("res-" + std::to_string(r));
    // 2..4 distinct tags per resource; the first ten resources carry one
    // pool tag each, so every tag a search asks for exists.
    const u32 first = static_cast<u32>(r % kMixTags.size());
    std::vector<std::string> tags{kMixTags[first]};
    const usize want = 2 + static_cast<usize>(rng.uniform(3));
    while (tags.size() < want) {
      const std::string& t = kMixTags[rng.uniform(kMixTags.size())];
      if (std::find(tags.begin(), tags.end(), t) == tags.end()) tags.push_back(t);
    }
    w->data.tags.push_back(std::move(tags));
  }
  for (usize r = 0; r < kMixResources; ++r) {
    for (const auto& t : w->data.tags[r]) {
      if (t == kMixTags[0]) w->data.hotEntries.push_back({w->data.resources[r], 1});
    }
  }
  i64 t1 = nowNs();
  const usize perWorker = cfg.smoke ? 20'000 : 120'000;
  for (usize k = 0; k < kMixWorkers; ++k) {
    Rng wr(splitmix64(cfg.seed * 31 + k));
    std::vector<MixOp> ops(perWorker);
    for (auto& op : ops) {
      u64 dice = wr.uniform(100);
      op.kind = dice < 60 ? kSearch : dice < 85 ? kResolve : kTag;
      op.res = static_cast<u16>(wr.uniform(kMixResources));
      op.tag = static_cast<u8>(wr.uniform(kMixTags.size()));
    }
    w->ops.push_back(std::move(ops));
  }
  i64 t2 = nowNs();
  w->rig = std::make_unique<EngineRig>(kMixNodes, kMixShards);
  i64 t3 = nowNs();
  ok = preloadRig(*w->rig, w->data);
  i64 t4 = nowNs();
  w->times.synthMs = static_cast<double>(t1 - t0) / 1e6;
  w->times.traceMs = static_cast<double>(t2 - t1) / 1e6;
  w->times.bootMs = static_cast<double>(t3 - t2) / 1e6;
  w->times.preloadMs = static_cast<double>(t4 - t3) / 1e6;
  return w;
}

/// One worker's measured ops. The bench's own bookkeeping counts in this
/// process's peak RSS, so untraced runs keep one latency per op only.
struct MixTally {
  Windows win;                     ///< every measured op
  std::array<Samples, 3> latUs;    ///< per kind (traced runs)
  std::array<u64, 3> count{}, lookups{};
  u64 inLimit = 0, failed = 0, retries = 0, wrongCost = 0;
  std::array<u64, 2> sliceOps{};   ///< [untraced, traced] slices
};

}  // namespace

RunResult runEngineMix(const BenchConfig& cfg) {
  RunResult res;
  SpanLog spans;
  Samples setupS;
  std::unique_ptr<MixWorld> w;
  while (cfg.moreSetups(setupS)) {
    w.reset();
    bool ok = false;
    i64 t0 = nowNs();
    w = mixSetup(cfg, ok);
    setupS.add(static_cast<double>(nowNs() - t0) / 1e9);
    if (!ok) {
      res.fail("engine_mix preload insert failed");
      return res;
    }
  }
  EngineRig& rig = *w->rig;
  const u32 k = core::DharmaConfig{}.k;

  std::atomic<i64> measureStart{INT64_MAX}, measureEnd{INT64_MAX};
  std::atomic<bool> stop{false};
  std::vector<MixTally> tallies(kMixWorkers);
  std::vector<std::thread> threads;
  // Set before the workers start and cleared after they join: they read it.
  spans.enabled = cfg.trace;
  for (usize wi = 0; wi < kMixWorkers; ++wi) {
    threads.emplace_back([&, wi] {
      const usize nodeIdx = wi + 1;
      core::DharmaConfig ccfg;
      ccfg.metrics = &rig.registry;
      core::DharmaClient client(rig.rtFor(nodeIdx), *rig.nodes[nodeIdx], ccfg,
                                cfg.seed + 100 + wi);
      MixTally& t = tallies[wi];
      const auto& ops = w->ops[wi];
      for (usize i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const MixOp& op = ops[i % ops.size()];
        const std::string& resName = w->data.resources[op.res];
        const std::string& tag = kMixTags[op.tag];
        i64 s = nowNs();
        bool ok = false;
        core::OpCost cost;
        u32 retries = 0;
        u64 expect = 0;
        if (op.kind == kSearch) {
          auto o = client.searchStep(tag);
          ok = o.ok() && o->tagKnown;
          cost = o.cost;
          retries = o.retries;
          expect = 2;
        } else if (op.kind == kResolve) {
          auto o = client.resolveUri(resName);
          ok = o.ok() && *o == "uri://" + resName;
          cost = o.cost;
          retries = o.retries;
          expect = 1;
        } else {
          auto o = client.tagResource(resName, tag);
          ok = o.ok();
          cost = o.cost;
          retries = o.retries;
          expect = 4 + k;
        }
        i64 e = nowNs();
        i64 ms = measureStart.load(std::memory_order_relaxed);
        if (e < ms || e >= measureEnd.load(std::memory_order_relaxed)) continue;
        double lat = static_cast<double>(e - s) / 1e6;
        const bool good = ok && lat <= kMixLimitMs;
        if (t.count[0] + t.count[1] + t.count[2] == 0) t.win = Windows(ms);
        t.win.add(e, lat, good);
        t.inLimit += good ? 1 : 0;
        if (cfg.trace) t.latUs[op.kind].add(lat * 1e3);
        ++t.count[op.kind];
        t.lookups[op.kind] += cost.lookups;
        t.retries += retries;
        if (!ok) ++t.failed;
        if (ok && cost.lookups != expect) ++t.wrongCost;
        bool traced = cfg.trace && tracedSlice(ms, s);
        ++t.sliceOps[traced ? 1 : 0];
        if (traced) spans.add(wi + 1, kMixSpan[op.kind], 0, spans.newId(), s, e);
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<i64>(cfg.warmupSeconds() * 1e9)));
  Scrape scrapeA = Scrape::fromRegistry(rig.registry);
  auto nodesA = rig.snapshot();
  net::UdpStats udpA = rig.transport->stats();
  const i64 start = nowNs();
  const i64 end = start + static_cast<i64>(cfg.seconds * 1e9);
  Windows win(start);
  measureEnd = end;
  measureStart = start;
  // The CPU clock is read at every window boundary.
  for (i64 next = start;; next += kWindowNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min(next, end) - nowNs()));
    const i64 now = nowNs();
    win.readCpu(now, 0);
    if (now >= end) break;
  }
  Scrape scrapeB = Scrape::fromRegistry(rig.registry);
  net::UdpStats udpB = rig.transport->stats();
  auto nodesB = rig.snapshot();
  stop = true;
  for (auto& th : threads) th.join();
  spans.enabled = false;

  MixTally all;
  for (const auto& t : tallies) {
    win.merge(t.win);
    for (usize i = 0; i < 3; ++i) {
      all.latUs[i].merge(t.latUs[i]);
      all.count[i] += t.count[i];
      all.lookups[i] += t.lookups[i];
    }
    all.inLimit += t.inLimit;
    all.failed += t.failed;
    all.retries += t.retries;
    all.wrongCost += t.wrongCost;
    all.sliceOps[0] += t.sliceOps[0];
    all.sliceOps[1] += t.sliceOps[1];
  }
  win.close(end, 0);
  res.attempted = all.count[0] + all.count[1] + all.count[2];
  res.failed = all.failed;
  if (res.attempted == 0) res.fail("engine_mix completed no operations");
  if (all.failed) res.fail(std::to_string(all.failed) + " engine_mix ops failed");
  if (all.wrongCost) {
    res.fail(std::to_string(all.wrongCost) +
             " engine_mix ops paid other than Table I lookups (2 / 1 / 4+k)");
  }

  const double ops = static_cast<double>(res.attempted);
  u64 lookups = all.lookups[0] + all.lookups[1] + all.lookups[2];
  res.e2e.set("setup_s", setupS.quantile(0.5), "s");
  res.e2e.set("throughput_ops_s", win.rate(), "ops/s");
  res.e2e.set("latency_p50_ms", win.quantile(0.5), "ms");
  res.e2e.set("latency_p95_ms", win.quantile(0.95), "ms");
  res.e2e.set("lookups_per_op", ratio(static_cast<double>(lookups), ops), "lookups/op");
  res.e2e.set("wire_bytes_per_op",
              ratio(static_cast<double>(udpB.bytesSent - udpA.bytesSent), ops), "B/op");
  res.e2e.set("cpu_ms_per_op", win.cpuMsPerOp(), "ms/op");
  res.e2e.set("peak_rss_mb", procPeakRssMb(0), "MB");

  if (cfg.trace) {
    MetricSet& L = res.layers;
    Scrape d = Scrape::delta(scrapeB, scrapeA);
    layersFromScrape(d, static_cast<double>(end - start), L);
    L.set("core.op_us.search_step.p50", all.latUs[kSearch].quantile(0.5), "us");
    L.set("core.op_us.resolve.p50", all.latUs[kResolve].quantile(0.5), "us");
    L.set("core.op_us.tag.p50", all.latUs[kTag].quantile(0.5), "us");
    L.set("core.op_us.tag.p99", all.latUs[kTag].quantile(0.99), "us");
    L.set("core.retries_per_op", ratio(static_cast<double>(all.retries), ops), "1/op");
    L.set("core.lookups_per_op.search_step",
          ratio(static_cast<double>(all.lookups[kSearch]), static_cast<double>(all.count[kSearch])),
          "lookups/op");
    L.set("core.lookups_per_op.resolve",
          ratio(static_cast<double>(all.lookups[kResolve]), static_cast<double>(all.count[kResolve])),
          "lookups/op");
    L.set("core.lookups_per_op.tag",
          ratio(static_cast<double>(all.lookups[kTag]), static_cast<double>(all.count[kTag])),
          "lookups/op");
    layersFromNodes(nodesA, nodesB, d, ops, L);
    L.set("net.datagrams_per_op", ratio(static_cast<double>(udpB.sent - udpA.sent), ops),
          "datagrams/op");
    L.set("loadgen.late_ratio", ratio(static_cast<double>(res.attempted - all.inLimit), ops),
          "fraction");
    Samples latUs;
    for (const auto& s : all.latUs) latUs.merge(s);
    L.set("loadgen.latency_p99_ms", latUs.quantile(0.99) / 1e3, "ms");
    // The slices alternate, so each kind covers half the window.
    L.set("trace.overhead_ratio",
          ratio(static_cast<double>(all.sliceOps[0]), static_cast<double>(all.sliceOps[1])),
          "ratio");
    w->times.report(L);
    spans.enabled = true;
    w->times.addSpans(spans);
    spans.enabled = false;
    probeRig(rig, w->data, L);
    probeCommon(w->data, L);
    if (!cfg.traceOut.empty() && !spans.writeChrome(cfg.traceOut)) {
      res.fail("cannot write " + cfg.traceOut);
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// replay_sim
// ---------------------------------------------------------------------------

namespace {

constexpr usize kReplayNodes = 64;
/// Annotations replayed per second of --seconds, capped at the whole trace
/// (about 11k annotations at scale 0.001: a 15 s run replays all of it).
/// Fixed work per run keeps every count (lookups, bytes, events) exact for
/// a given seed; a 4-core Xeon replays ~750 annotations/s.
constexpr double kReplayPerSecond = 750;

struct ReplayWorld {
  obs::MetricsRegistry registry;  // first: the overlay holds handles into it
  wl::Dataset data;
  wl::Trace trace;
  std::unique_ptr<dht::DhtNetwork> net;
  std::unique_ptr<core::DharmaClient> client;
  wl::BulkLoadStats skeleton;
  SetupTimes times;
};

std::unique_ptr<ReplayWorld> replaySetup(const BenchConfig& cfg) {
  auto w = std::make_unique<ReplayWorld>();
  i64 t0 = nowNs();
  w->times.startNs = t0;
  // One fixed folksonomy on one fixed 64-node overlay (node ids follow the
  // overlay seed, and with them every lookup's hop count); the run's seed
  // varies the replay order and the client's Approximation A draws.
  double scale = cfg.smoke ? 0.0002 : 0.001;
  w->data = wl::Dataset::synthetic(wl::SynthConfig::lastfmScaled(scale, splitmix64(0x5EB1u)));
  i64 t1 = nowNs();
  w->trace = wl::buildPaperOrderTrace(w->data.trg, splitmix64(cfg.seed ^ 0x7ACEull));
  i64 t2 = nowNs();
  dht::DhtNetworkConfig ncfg;
  ncfg.nodes = kReplayNodes;
  ncfg.seed = 42;
  ncfg.node.metrics = &w->registry;
  w->net = std::make_unique<dht::DhtNetwork>(ncfg);
  w->net->bootstrap();
  i64 t3 = nowNs();
  core::DharmaConfig ccfg;  // approximated protocol, k = 1, cache off
  ccfg.metrics = &w->registry;
  w->client = std::make_unique<core::DharmaClient>(*w->net, 0, ccfg, cfg.seed);
  // Section V-B starts from a disconnected graph: every resource's r̃/r̄
  // skeleton is published first, then the annotations build the rest.
  wl::BulkLoadOptions opt;
  opt.batched = false;
  opt.insertFirst = true;
  w->skeleton = wl::loadTrace(*w->client, w->data, {}, opt);
  i64 t4 = nowNs();
  w->times.synthMs = static_cast<double>(t1 - t0) / 1e6;
  w->times.traceMs = static_cast<double>(t2 - t1) / 1e6;
  w->times.bootMs = static_cast<double>(t3 - t2) / 1e6;
  w->times.preloadMs = static_cast<double>(t4 - t3) / 1e6;
  return w;
}

std::vector<NodeSnapshot> snapshot(dht::DhtNetwork& net) {
  std::vector<NodeSnapshot> out;
  for (usize i = 0; i < net.size(); ++i) {
    out.push_back({net.node(i).counters(), net.node(i).store().tokensApplied()});
  }
  return out;
}

}  // namespace

RunResult runReplaySim(const BenchConfig& cfg) {
  RunResult res;
  SpanLog spans;
  Samples setupS;
  std::unique_ptr<ReplayWorld> w;
  while (cfg.moreSetups(setupS)) {
    w.reset();
    i64 t0 = nowNs();
    w = replaySetup(cfg);
    setupS.add(static_cast<double>(nowNs() - t0) / 1e9);
    if (w->skeleton.failures != 0) {
      res.fail("replay_sim skeleton insert failed");
      return res;
    }
  }
  dht::DhtNetwork& net = *w->net;

  const usize n = std::min<usize>(
      w->trace.size(),
      std::max<usize>(1, static_cast<usize>(kReplayPerSecond * cfg.seconds)));
  wl::BulkLoadOptions opt;
  opt.batched = false;
  opt.insertFirst = false;
  wl::BulkLoadStats total;
  Samples latMs;
  std::array<u64, 2> sliceOps{};
  std::array<double, 2> sliceNs{};
  const auto nodesA = snapshot(net);
  Scrape scrapeA = Scrape::fromRegistry(w->registry);
  const net::NetworkStats netA = net.network().stats();
  const u64 eventsA = net.sim().executed();
  spans.enabled = cfg.trace;
  const i64 start = nowNs();
  Windows win(start);
  win.readCpu(start, 0);
  for (usize j = 0; j < n; ++j) {
    i64 s = nowNs();
    wl::BulkLoadStats st = wl::loadTrace(*w->client, w->data, {w->trace[j]}, opt);
    i64 e = nowNs();
    total.annotations += st.annotations;
    total.failures += st.failures;
    total.retries += st.retries;
    total.cost += st.cost;
    const double lat = static_cast<double>(e - s) / 1e6;
    latMs.add(lat);
    win.add(e, lat, st.failures == 0);
    win.readCpu(e, 0);
    bool traced = cfg.trace && tracedSlice(start, s);
    ++sliceOps[traced ? 1 : 0];
    sliceNs[traced ? 1 : 0] += static_cast<double>(e - s);
    if (traced) spans.add(0, "replay.annotation", 0, j + 1, s, e);
  }
  const i64 end = nowNs();
  spans.enabled = false;
  win.close(end, 0);
  const u64 events = net.sim().executed() - eventsA;
  const net::NetworkStats netB = net.network().stats();
  const auto nodesB = snapshot(net);
  Scrape d = Scrape::delta(Scrape::fromRegistry(w->registry), scrapeA);

  res.attempted = n;
  res.failed = total.failures;
  if (total.failures) res.fail(std::to_string(total.failures) + " replay annotations failed");

  // Every replayed resource's r̄ weights must equal the TRG's u(t,r) over
  // the replayed prefix: the approximations shape the FG, never the TRG.
  std::map<u32, std::map<u32, u64>> expect;
  for (usize j = 0; j < n; ++j) ++expect[w->trace[j].res][w->trace[j].tag];
  usize wrong = 0;
  for (const auto& [r, tags] : expect) {
    const std::string& name = w->data.resources.name(r);
    auto view = net.getBlocking(1, core::blockKey(name, core::BlockType::kResourceTags),
                                dht::GetOptions{0, 1u << 20, false});
    bool ok = view.has_value() && view->totalEntries == tags.size();
    if (ok) {
      for (const auto& e : view->entries) {
        auto tagId = w->data.tags.find(e.name);
        auto it = tagId ? tags.find(*tagId) : tags.end();
        if (it == tags.end() || it->second != e.weight) ok = false;
      }
    }
    if (!ok && ++wrong <= 3) {
      res.fail("replay_sim: r̄ of " + name + " does not match the TRG weights");
    }
  }
  if (wrong > 3) res.fail(std::to_string(wrong) + " resources with wrong r̄ weights");

  const double ops = static_cast<double>(n);
  res.e2e.set("setup_s", setupS.quantile(0.5), "s");
  res.e2e.set("throughput_ops_s", win.rate(), "ops/s");
  res.e2e.set("latency_p50_ms", win.quantile(0.5), "ms");
  res.e2e.set("latency_p95_ms", win.quantile(0.95), "ms");
  res.e2e.set("lookups_per_op", total.lookupsPerAnnotation(), "lookups/op");
  res.e2e.set("wire_bytes_per_op",
              ratio(static_cast<double>(netB.bytesSent - netA.bytesSent), ops), "B/op");
  res.e2e.set("cpu_ms_per_op", win.cpuMsPerOp(), "ms/op");
  res.e2e.set("peak_rss_mb", procPeakRssMb(0), "MB");

  if (cfg.trace) {
    MetricSet& L = res.layers;
    layersFromScrape(d, static_cast<double>(end - start), L);
    L.set("core.op_us.tag.p50", latMs.quantile(0.5) * 1e3, "us");
    L.set("core.op_us.tag.p99", latMs.quantile(0.99) * 1e3, "us");
    L.set("loadgen.latency_p99_ms", latMs.quantile(0.99), "ms");
    L.set("core.retries_per_op", ratio(static_cast<double>(total.retries), ops), "1/op");
    L.set("core.lookups_per_op.tag", total.lookupsPerAnnotation(), "lookups/op");
    layersFromNodes(nodesA, nodesB, d, ops, L);
    L.set("net.datagrams_per_op", ratio(static_cast<double>(netB.sent - netA.sent), ops),
          "datagrams/op");
    L.set("net.sim_events_per_op", ratio(static_cast<double>(events), ops), "events/op");
    L.set("net.sim_ns_per_event",
          ratio(static_cast<double>(end - start), static_cast<double>(events)), "ns");
    L.set("trace.overhead_ratio",
          ratio(static_cast<double>(sliceOps[0]) / sliceNs[0],
                static_cast<double>(sliceOps[1]) / sliceNs[1]),
          "ratio");
    w->times.report(L);
    spans.enabled = true;
    w->times.addSpans(spans);
    spans.enabled = false;

    // Probes on the warmed simulated overlay.
    core::SimRuntime simRt(net.sim(), net.network());
    Samples await;
    for (int i = 0; i < 2000; ++i) {
      i64 t0 = nowNs();
      simRt.awaitDone([](std::function<void()> done) { done(); });
      await.add(static_cast<double>(nowNs() - t0) / 1e3);
    }
    L.set("core.await_us.p50", await.quantile(0.5), "us");
    ProbeInputs in;
    for (const auto& [r, tags] : expect) {
      if (in.resources.size() >= 64) break;
      in.resources.push_back(w->data.resources.name(r));
      std::vector<std::string> names;
      for (const auto& [t, cnt] : tags) names.push_back(w->data.tags.name(t));
      in.tags.push_back(std::move(names));
    }
    u32 hot = 0;
    for (u32 t = 0; t < w->data.trg.tagSpan(); ++t) {
      if (w->data.trg.tagDegree(t) > w->data.trg.tagDegree(hot)) hot = t;
    }
    for (u32 r : w->data.trg.resourcesOf(hot)) {
      in.hotEntries.push_back({w->data.resources.name(r), w->data.trg.weight(r, hot)});
    }
    Samples get, put;
    for (usize i = 0; i < 400; ++i) {
      const std::string& name = in.resources[i % in.resources.size()];
      i64 t0 = nowNs();
      net.getResult(1, core::blockKey(name, core::BlockType::kResourceTags));
      get.add(static_cast<double>(nowNs() - t0) / 1e3);
      std::vector<dht::StoreToken> tokens;
      for (const auto& t : in.tags[i % in.tags.size()]) {
        tokens.push_back(dht::StoreToken{dht::TokenKind::kIncrement, t, 1, {}});
      }
      t0 = nowNs();
      net.putManyResult(1, dht::NodeId::fromString("e2e-probe-" + name), std::move(tokens));
      put.add(static_cast<double>(nowNs() - t0) / 1e3);
    }
    L.set("dht.get_us.p50", get.quantile(0.5), "us");
    L.set("dht.put_us.p50", put.quantile(0.5), "us");
    probeCommon(in, L);
    if (!cfg.traceOut.empty() && !spans.writeChrome(cfg.traceOut)) {
      res.fail("cannot write " + cfg.traceOut);
    }
  }
  return res;
}

}  // namespace bench
