#pragma once
/// \file sharded.hpp
/// \brief ShardedExecutor: N RealTimeExecutor run loops with stable
/// per-engine affinity.
///
/// The single RealTimeExecutor serializes every protocol callback in the
/// process onto one thread — a ~4k ops/s ceiling on loopback UDP. Sharding
/// keeps the contract that makes the engine lock-free while multiplying
/// the loops: each KademliaNode (with its
/// MaintenanceManager and RecordCache) is ASSIGNED to exactly one shard at
/// construction and every one of its callbacks — datagram deliveries
/// (via Transport::registerEndpoint(handler, exec)), timers, client ops —
/// runs on that shard's loop thread, forever. Within a shard nothing
/// changed: one callback at a time, no locks, and the PR-7 affinity
/// checker (DHARMA_ASSERT_AFFINITY) still aborts on any cross-shard touch,
/// because each node's Executor& IS its shard.
///
/// ShardedExecutor is deliberately NOT an Executor: there is no meaningful
/// "schedule on the group". Engines bind to shard(i); the group object
/// only owns lifecycle (start/stop all) and placement (assignShard round-
/// robin, shardOf for key-stable mapping).
///
/// Observability: given a MetricsRegistry, each shard records
///   dharma_node_shard_task_run_us{shard="i"}   callback run time
///   dharma_node_shard_task_wait_us{shard="i"}  scheduling lag past deadline
///   dharma_node_shard_queue_depth{shard="i"}   live tasks in the queue
/// — the per-shard series the repo benchmark's net.shard_* metrics read and
/// the queue-depth gauges OBSERVABILITY.md documents.

#include <atomic>
#include <memory>
#include <vector>

#include "net/realtime.hpp"

namespace dharma::obs {
class MetricsRegistry;
}  // namespace dharma::obs

namespace dharma::net {

/// A fixed-size group of RealTimeExecutor run loops (see file comment).
class ShardedExecutor {
 public:
  struct Config {
    usize shards = 1;  ///< number of run loops (>= 1; 0 is clamped to 1)
    /// Optional per-shard instrumentation sink (see file comment). Must
    /// outlive the executor group; null disables.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit ShardedExecutor(Config cfg);
  explicit ShardedExecutor(usize shards)
      : ShardedExecutor(Config{shards, nullptr}) {}

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Stops every shard (the per-shard destructors would too; explicit for
  /// symmetry with the daemons' teardown ordering).
  ~ShardedExecutor();

  usize shardCount() const { return shards_.size(); }

  RealTimeExecutor& shard(usize i) { return *shards_[i % shards_.size()]; }
  const RealTimeExecutor& shard(usize i) const {
    return *shards_[i % shards_.size()];
  }

  /// Stable key → shard mapping (e.g. a node index): key % shardCount().
  usize shardOf(u64 key) const { return static_cast<usize>(key) % shards_.size(); }

  /// Round-robin placement counter for engines constructed in sequence.
  /// Returns the shard index to bind the next engine to. Thread-safe.
  usize assignShard() {
    return next_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  }

  /// Starts every shard's run loop (idempotent).
  void start();

  /// Stops every shard: each loop drains its due tasks and joins. Safe to
  /// call repeatedly; the destructor calls it.
  void stop();

  /// True while every shard's loop is running.
  bool running() const;

  /// Sum of pending (non-cancelled, not yet started) tasks across shards.
  usize pendingTotal() const;

 private:
  std::vector<std::unique_ptr<RealTimeExecutor>> shards_;
  std::atomic<usize> next_{0};
};

}  // namespace dharma::net
