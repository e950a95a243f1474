#pragma once
/// \file workloads.hpp
/// \brief The four benchmark workloads and the pieces they share: run
/// configuration, phase sizing, an in-process live cluster (EngineRig),
/// and the probe phase that times lower layers in isolation.

#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "crypto/identity.hpp"
#include "dht/kademlia_node.hpp"
#include "net/datagram.hpp"
#include "net/sharded.hpp"
#include "obs/registry.hpp"
#include "support.hpp"

namespace bench {

struct BenchConfig {
  std::string workload;
  u64 seed = 42;
  double seconds = 15;   ///< measured time of one run
  bool trace = false;    ///< bench spans + probe phase + per-layer metrics
  std::string daemonPath;
  std::string traceOut;  ///< Chrome trace-event file (traced runs)
  bool smoke = false;    ///< CI-sized datasets

  /// Unmeasured warm-up before the measured phase.
  double warmupSeconds() const {
    return std::max(0.2, std::min(1.0, seconds / 15.0));
  }

  /// Whether to set up once more, given the set-up times so far (setup_s
  /// is their median): once in a smoke run; otherwise at least 3 times, and
  /// on (up to 15) until a second has been spent, so a cheap set-up still
  /// gets a steady median.
  bool moreSetups(const Samples& done) const {
    if (smoke) return done.empty();
    return done.size() < 3 || (done.size() < 15 && done.sum() < 1.0);
  }
};

/// The gateway daemon's command-line flags (after the binary path).
std::string daemonFlags();

RunResult runBrowseHttp(const BenchConfig& cfg);
RunResult runTagHttp(const BenchConfig& cfg);
RunResult runEngineMix(const BenchConfig& cfg);
RunResult runReplaySim(const BenchConfig& cfg);

/// Phases of one set-up, in the order they run: dataset synthesis, request
/// trace, overlay boot/join, preload.
struct SetupTimes {
  i64 startNs = 0;
  double synthMs = 0, traceMs = 0, bootMs = 0, preloadMs = 0;

  /// workload.synth_ms, workload.trace_ms, workload.preload_ms and
  /// dht.bootstrap_ms.
  void report(MetricSet& layers) const;
  /// A "setup" span with one child per phase.
  void addSpans(SpanLog& spans) const;
};

/// Closed-loop / traced-slice bookkeeping: during the throughput phase of
/// a traced run, tracing is switched on and off in alternating slices, and
/// the throughput ratio of the two kinds of slice is the tracing overhead.
constexpr i64 kTraceSliceNs = 250 * kNsPerMs;
inline bool tracedSlice(i64 phaseStartNs, i64 tNs) {
  return ((tNs - phaseStartNs) / kTraceSliceNs) % 2 == 1;
}

/// One node's counters and the tokens its block store has applied.
struct NodeSnapshot {
  dharma::dht::NodeCounters counters;
  u64 tokensApplied = 0;
};

/// A live loopback-UDP cluster in this process: N KademliaNodes on one
/// datagram transport (the platform's default backend) under a
/// ShardedExecutor, node i pinned to shard i % shards, every node joined
/// through node 0. Node identities are the same in every run, so the run's
/// seed varies only the requests. All layers record into `registry`.
class EngineRig {
 public:
  EngineRig(usize nodes, usize shards);
  ~EngineRig();
  EngineRig(const EngineRig&) = delete;
  EngineRig& operator=(const EngineRig&) = delete;

  /// The runtime that blocking operations against node \p i wait on.
  dharma::core::Runtime& rtFor(usize i) {
    return rt.forShard(execs.shardOf(i));
  }

  /// Every node's snapshot, read on the node's own shard.
  std::vector<NodeSnapshot> snapshot();

  dharma::obs::MetricsRegistry registry;  // first: the layers below hold handles
  dharma::net::ShardedExecutor execs;
  std::unique_ptr<dharma::net::DatagramTransport> transport;
  dharma::crypto::CertificationService cs;
  dharma::core::ShardedRuntime rt;
  std::vector<std::unique_ptr<dharma::dht::KademliaNode>> nodes;
};

/// What the probe phase replays: resources with their tags, as the
/// workload's dataset has them, and one hot tag's t̄ view.
struct ProbeInputs {
  std::vector<std::string> resources;
  std::vector<std::vector<std::string>> tags;  ///< parallel to resources
  std::vector<dharma::dht::BlockEntry> hotEntries;
};

/// Envelope codec, block-store apply, Likir crypto and UDP round-trip
/// probes (the layers every workload reaches).
void probeCommon(const ProbeInputs& in, MetricSet& layers);

/// Runtime hand-off and node GET/PUT probes on a live rig whose nodes
/// already hold \p in's resources.
void probeRig(EngineRig& rig, const ProbeInputs& in, MetricSet& layers);

/// Inserts \p in's resources (URI `uri://<r>`, with their tags) through a
/// client on node 0 of \p rig. False on any failed insert.
bool preloadRig(EngineRig& rig, const ProbeInputs& in);

/// Per-layer metrics read from a registry delta over a measured window:
/// node lookups/RPC service, UDP send/receive, shard run/wait, client
/// block ops. \p wallNs is the window length.
void layersFromScrape(const Scrape& d, double wallNs, MetricSet& layers);

}  // namespace bench
