#pragma once
/// \file epoll_transport.hpp
/// \brief Linux batched-I/O UDP transport: epoll + recvmmsg/sendmmsg.
///
/// The one implementation behind the DatagramTransport seam. Three things
/// shape it, each attacking a per-datagram cost:
///
///  1. **epoll.** One event thread blocks in epoll_wait(-1) with every
///     endpoint socket registered once; a new endpoint is one epoll_ctl,
///     not a wakeup plus a full fd-set re-snapshot per cycle.
///  2. **Batched receive, batched delivery.** A ready socket is drained
///     with recvmmsg (up to 32 datagrams per syscall) and each drained
///     batch is posted to the endpoint's executor as ONE task that runs
///     the handler over the whole batch — one queue push, one futex
///     round-trip, one context switch per batch instead of per datagram.
///     With a ShardedExecutor the batch lands on the owning node's shard,
///     so the one-callback-at-a-time world is preserved per endpoint.
///  3. **Send coalescing.** send() never touches the socket: it appends to
///     a queue and (only when the queue was empty) wakes the event thread
///     via eventfd; the event thread flushes the queue with sendmmsg,
///     grouping consecutive same-source runs. Protocol callbacks answering
///     an RPC burst pay one eventfd write for the whole burst, and sendto
///     syscalls collapse ~batch-fold. It also means ONLY the event thread
///     performs socket I/O — sockets are closed strictly after that thread
///     joins, so no send can race a close into a recycled fd; the lock
///     covers only the queue append.
///
/// The transport conformance suite (tests/test_transport.cpp) pins the
/// protocol-visible behaviour: addressing, MTU rejection, partition rules,
/// stats vocabulary. UdpStats::sent documents the one queue hop: acceptance
/// by the kernel happens after send() returns.

#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/datagram.hpp"
#include "net/executor.hpp"
#include "util/thread_annotations.hpp"

namespace dharma::obs {
class Histogram;
}  // namespace dharma::obs

namespace dharma::net {

/// Linux epoll/recvmmsg/sendmmsg transport (see file comment).
class EpollTransport final : public DatagramTransport {
 public:
  using Config = UdpConfig;

  /// \param defaultExec delivery executor for endpoints registered without
  ///                    an explicit one. Must be thread-safe
  ///                    (RealTimeExecutor): the event thread posts to it.
  EpollTransport(Executor& defaultExec, UdpConfig cfg);
  explicit EpollTransport(Executor& defaultExec)
      : EpollTransport(defaultExec, UdpConfig{}) {}

  /// Closes every socket and joins the event thread.
  ~EpollTransport() override;

  EpollTransport(const EpollTransport&) = delete;
  EpollTransport& operator=(const EpollTransport&) = delete;

  // Transport
  Address registerEndpoint(ReceiveHandler handler) override;
  /// Binds a fresh UDP socket on an ephemeral port and routes its receive
  /// batches to \p deliverTo — the sharding hook (each node passes its own
  /// shard). Starts the event thread on first call.
  Address registerEndpoint(ReceiveHandler handler,
                           Executor& deliverTo) override;
  void setHandler(Address a, ReceiveHandler handler) override;
  /// Queues the datagram for the event thread's next sendmmsg flush (see
  /// file comment). The usual synchronous rejections (oversize, unknown or
  /// closed local endpoint) still return false here; kernel-level send
  /// failures surface only in stats().sendErrors.
  bool send(Address from, Address to, std::vector<u8> payload) override;
  bool isOnline(Address a) const override;
  usize mtuBytes() const override { return cfg_.mtuBytes; }

  // DatagramTransport
  void dropPeer(Address peer) override;
  bool undropPeer(Address peer) override;
  usize clearDroppedPeers() override;
  usize droppedPeerCount() const override;
  void close() override;
  UdpStats stats() const override;
  const UdpConfig& config() const override { return cfg_; }

 private:
  struct Endpoint {
    int fd = -1;
    ReceiveHandler handler;
    Executor* exec = nullptr;  ///< where this endpoint's batches run
  };
  /// One queued outbound datagram; fd is the source endpoint's socket,
  /// valid until close() (sockets outlive the event thread by design).
  struct SendItem {
    int fd = -1;
    Address to = kNullAddress;
    std::vector<u8> payload;
  };

  /// State reachable from executor-posted delivery tasks. Held by
  /// shared_ptr and captured as weak_ptr in those tasks: a batch still
  /// queued on some shard when the transport dies locks nothing stale.
  /// Nothing here references the transport.
  struct Shared {
    Mutex mu;
    std::unordered_map<Address, Endpoint> endpoints GUARDED_BY(mu);
    std::unordered_set<Address> dropPeers GUARDED_BY(mu);
    UdpStats stats GUARDED_BY(mu);
    std::vector<SendItem> sendQueue GUARDED_BY(mu);
    bool closing GUARDED_BY(mu) = false;
  };

  void eventLoop();
  /// sendmmsg-flushes \p items (event thread only; takes sh_->mu only to
  /// fold the counters in at the end).
  void flushSends(std::vector<SendItem>& items);
  void wakeEventThread();

  Executor& defaultExec_;
  UdpConfig cfg_;
  u32 bindIp_ = 0;  ///< cfg_.bindHost parsed once, host byte order

  // Created in the constructor, closed in close() strictly after the event
  // thread joins — effectively const for the thread's whole lifetime, so
  // unguarded reads from it and from send() are safe.
  int epollFd_ = -1;
  int wakeFd_ = -1;  ///< eventfd: send-queue wakeups and close()

  // Pre-resolved histogram handles (null when cfg_.metrics is unset);
  // lock-free, recorded from the event thread.
  obs::Histogram* sendHist_ = nullptr;
  obs::Histogram* recvBatchHist_ = nullptr;
  obs::Histogram* recvBatchUsHist_ = nullptr;

  std::shared_ptr<Shared> sh_ = std::make_shared<Shared>();
  bool threadStarted_ GUARDED_BY(sh_->mu) = false;
  std::thread thread_ GUARDED_BY(sh_->mu);
};

}  // namespace dharma::net
