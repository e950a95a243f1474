#include "net/epoll_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"

namespace dharma::net {

namespace {

/// Datagrams per recvmmsg/sendmmsg syscall. 32 keeps the per-message
/// buffer set (32 * 2 KiB) cache-friendly while amortising the syscall to
/// noise at bench rates.
constexpr usize kIoBatch = 32;
/// Per-message receive buffer. Anything above the MTU fails decode anyway,
/// so truncating huge datagrams here loses nothing observable.
constexpr usize kRecvMsgBytes = 2048;
/// epoll_data tag for the eventfd. Addresses occupy 48 bits, so the
/// all-ones u64 can never collide with an endpoint.
constexpr u64 kWakeTag = ~u64{0};

sockaddr_in makeSockAddr(u32 ipHostOrder, u16 port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(ipHostOrder);
  return sa;
}

/// Records wall microseconds into \p h on scope exit; inert when null.
struct ScopedTimer {
  obs::Histogram* h;
  std::chrono::steady_clock::time_point t0;
  explicit ScopedTimer(obs::Histogram* hist)
      : h(hist),
        t0(hist != nullptr ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (h == nullptr) return;
    auto dt = std::chrono::steady_clock::now() - t0;
    h->record(static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
  }
};

}  // namespace

EpollTransport::EpollTransport(Executor& defaultExec, UdpConfig cfg)
    : defaultExec_(defaultExec), cfg_(std::move(cfg)) {
  auto ip = parseIpv4Host(cfg_.bindHost);
  if (!ip) {
    throw TransportError(
        TransportError::Kind::kBadAddress,
        "EpollTransport: bad bind host '" + cfg_.bindHost + "'");
  }
  bindIp_ = *ip;
  if (cfg_.metrics != nullptr) {
    sendHist_ = &cfg_.metrics->histogram(
        "dharma_udp_send_us",
        "UDP sendto() latency including the transport lock (microseconds)",
        {});
    recvBatchHist_ = &cfg_.metrics->histogram(
        "dharma_udp_recv_batch_datagrams",
        "Datagrams drained per ready-socket receive batch", {});
    recvBatchUsHist_ = &cfg_.metrics->histogram(
        "dharma_udp_recv_batch_us",
        "Time to drain one ready-socket receive batch (microseconds)", {});
  }
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) {
    throw TransportError(TransportError::Kind::kSocketFailed,
                         "EpollTransport: epoll_create1() failed");
  }
  wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeFd_ < 0) {
    ::close(epollFd_);
    epollFd_ = -1;
    throw TransportError(TransportError::Kind::kSocketFailed,
                         "EpollTransport: eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0) {
    ::close(epollFd_);
    ::close(wakeFd_);
    epollFd_ = wakeFd_ = -1;
    throw TransportError(TransportError::Kind::kSocketFailed,
                         "EpollTransport: epoll_ctl(eventfd) failed");
  }
}

EpollTransport::~EpollTransport() { close(); }

void EpollTransport::wakeEventThread() {
  u64 one = 1;
  // Best-effort: an eventfd at max already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

Address EpollTransport::registerEndpoint(ReceiveHandler handler) {
  return registerEndpoint(std::move(handler), defaultExec_);
}

Address EpollTransport::registerEndpoint(ReceiveHandler handler,
                                         Executor& deliverTo) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    throw TransportError(TransportError::Kind::kSocketFailed,
                         "EpollTransport: socket() failed");
  }
  fcntl(fd, F_SETFL, O_NONBLOCK);
  sockaddr_in sa = makeSockAddr(bindIp_, 0);  // ephemeral port
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    throw TransportError(TransportError::Kind::kBindFailed,
                         "EpollTransport: bind() failed");
  }
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    ::close(fd);
    throw TransportError(TransportError::Kind::kBindFailed,
                         "EpollTransport: getsockname() failed");
  }
  Address addr = makeAddress(bindIp_, ntohs(sa.sin_port));

  MutexLock lk(sh_->mu);
  if (sh_->closing) {
    ::close(fd);
    throw TransportError(TransportError::Kind::kClosed,
                         "EpollTransport: registerEndpoint after close()");
  }
  // Register with epoll before publishing the endpoint; EPOLL_CTL_ADD is
  // safe against a concurrent epoll_wait, so the event thread needs no
  // wakeup to notice the new socket (level-triggered readiness).
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = addr;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    throw TransportError(TransportError::Kind::kSocketFailed,
                         "EpollTransport: epoll_ctl(socket) failed");
  }
  sh_->endpoints[addr] = Endpoint{fd, std::move(handler), &deliverTo};
  if (!threadStarted_) {
    threadStarted_ = true;
    thread_ = std::thread([this] { eventLoop(); });
  }
  return addr;
}

void EpollTransport::setHandler(Address a, ReceiveHandler handler) {
  MutexLock lk(sh_->mu);
  auto it = sh_->endpoints.find(a);
  if (it != sh_->endpoints.end()) it->second.handler = std::move(handler);
}

bool EpollTransport::send(Address from, Address to, std::vector<u8> payload) {
  if (payload.size() > cfg_.mtuBytes) {
    MutexLock lk(sh_->mu);
    ++sh_->stats.droppedOversize;
    return false;
  }
  bool wake;
  {
    MutexLock lk(sh_->mu);
    auto it = sh_->endpoints.find(from);
    if (it == sh_->endpoints.end() || it->second.fd < 0 || sh_->closing) {
      return false;
    }
    if (sh_->dropPeers.count(to)) {
      // Partition rule: the datagram vanishes exactly as it would in a
      // real partition — the send looks accepted, nothing arrives.
      ++sh_->stats.droppedByRule;
      return true;
    }
    // Wake the event thread only on the empty→non-empty edge: a burst of
    // sends from one protocol callback pays one eventfd write, and the
    // flush picks up everything queued by the time it runs.
    wake = sh_->sendQueue.empty();
    sh_->sendQueue.push_back(SendItem{it->second.fd, to, std::move(payload)});
  }
  if (wake) wakeEventThread();
  return true;
}

bool EpollTransport::isOnline(Address a) const {
  MutexLock lk(sh_->mu);
  if (sh_->closing) return false;
  auto it = sh_->endpoints.find(a);
  // Local endpoints are online while their socket is open; anything else is
  // a remote peer, and remote liveness is the RPC timeout's business.
  return it == sh_->endpoints.end() || it->second.fd >= 0;
}

void EpollTransport::dropPeer(Address peer) {
  MutexLock lk(sh_->mu);
  sh_->dropPeers.insert(peer);
}

bool EpollTransport::undropPeer(Address peer) {
  MutexLock lk(sh_->mu);
  return sh_->dropPeers.erase(peer) > 0;
}

usize EpollTransport::clearDroppedPeers() {
  MutexLock lk(sh_->mu);
  usize n = sh_->dropPeers.size();
  sh_->dropPeers.clear();
  return n;
}

usize EpollTransport::droppedPeerCount() const {
  MutexLock lk(sh_->mu);
  return sh_->dropPeers.size();
}

void EpollTransport::close() {
  std::thread toJoin;
  {
    MutexLock lk(sh_->mu);
    if (sh_->closing) return;
    sh_->closing = true;
    wakeEventThread();
    toJoin = std::move(thread_);
  }
  if (toJoin.joinable()) toJoin.join();
  // Sockets close strictly after the event thread is gone: it was the only
  // thread doing socket I/O, so no syscall can hit a recycled fd.
  MutexLock lk(sh_->mu);
  for (auto& [addr, ep] : sh_->endpoints) {
    if (ep.fd >= 0) ::close(ep.fd);
    ep.fd = -1;
  }
  if (epollFd_ >= 0) ::close(epollFd_);
  if (wakeFd_ >= 0) ::close(wakeFd_);
  epollFd_ = wakeFd_ = -1;
  sh_->sendQueue.clear();
}

UdpStats EpollTransport::stats() const {
  MutexLock lk(sh_->mu);
  return sh_->stats;
}

void EpollTransport::flushSends(std::vector<SendItem>& items) {
  ScopedTimer timer(sendHist_);
  mmsghdr msgs[kIoBatch];
  iovec iov[kIoBatch];
  sockaddr_in dst[kIoBatch];
  u64 sent = 0, bytes = 0, errors = 0;
  usize i = 0;
  while (i < items.size()) {
    // One sendmmsg per run of consecutive same-socket items. The queue is
    // append-ordered, so an RPC reply burst from one node forms one run.
    int fd = items[i].fd;
    usize n = 0;
    while (i + n < items.size() && items[i + n].fd == fd && n < kIoBatch) {
      SendItem& it = items[i + n];
      dst[n] = makeSockAddr(addressIp(it.to), addressPort(it.to));
      iov[n] = {it.payload.data(), it.payload.size()};
      msgs[n] = mmsghdr{};
      msgs[n].msg_hdr.msg_name = &dst[n];
      msgs[n].msg_hdr.msg_namelen = sizeof(dst[n]);
      msgs[n].msg_hdr.msg_iov = &iov[n];
      msgs[n].msg_hdr.msg_iovlen = 1;
      ++n;
    }
    usize done = 0;
    while (done < n) {
      int r = ::sendmmsg(fd, msgs + done, static_cast<unsigned>(n - done), 0);
      if (r <= 0) {
        // Datagram semantics: a full socket buffer (or any kernel refusal)
        // drops the rest of the run, counted, never retried.
        errors += n - done;
        break;
      }
      for (int k = 0; k < r; ++k) {
        ++sent;
        bytes += items[i + done + static_cast<usize>(k)].payload.size();
      }
      done += static_cast<usize>(r);
    }
    i += n;
  }
  MutexLock lk(sh_->mu);
  sh_->stats.sent += sent;
  sh_->stats.bytesSent += bytes;
  sh_->stats.sendErrors += errors;
}

void EpollTransport::eventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // recvmmsg scaffolding, reused across batches.
  std::vector<std::vector<u8>> bufs(kIoBatch,
                                    std::vector<u8>(kRecvMsgBytes));
  mmsghdr msgs[kIoBatch];
  iovec iov[kIoBatch];
  sockaddr_in src[kIoBatch];
  /// One received datagram as handed to the batch delivery task.
  struct Datagram {
    Address src;
    std::vector<u8> payload;
  };
  std::vector<SendItem> toSend;

  while (true) {
    int n = ::epoll_wait(epollFd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd broken: nothing sane left to do
    }
    for (int e = 0; e < n; ++e) {
      u64 tag = events[e].data.u64;
      if (tag == kWakeTag) {
        u64 sink;
        while (::read(wakeFd_, &sink, sizeof(sink)) > 0) {
        }
        continue;  // send flush and the closing check run below
      }
      Address dstAddr = tag;
      int fd = -1;
      Executor* exec = nullptr;
      {
        MutexLock lk(sh_->mu);
        auto it = sh_->endpoints.find(dstAddr);
        if (it == sh_->endpoints.end() || it->second.fd < 0) continue;
        fd = it->second.fd;
        exec = it->second.exec;
      }
      // Drain the socket in recvmmsg batches; a short batch means drained
      // (and level-triggered epoll re-arms if something landed since).
      while (true) {
        for (usize m = 0; m < kIoBatch; ++m) {
          iov[m] = {bufs[m].data(), bufs[m].size()};
          msgs[m] = mmsghdr{};
          msgs[m].msg_hdr.msg_name = &src[m];
          msgs[m].msg_hdr.msg_namelen = sizeof(src[m]);
          msgs[m].msg_hdr.msg_iov = &iov[m];
          msgs[m].msg_hdr.msg_iovlen = 1;
        }
        ScopedTimer batchTimer(recvBatchUsHist_);
        int r = ::recvmmsg(fd, msgs, static_cast<unsigned>(kIoBatch), 0,
                           nullptr);
        if (r <= 0) break;  // EWOULDBLOCK (drained) or error
        auto batch = std::make_shared<std::vector<Datagram>>();
        batch->reserve(static_cast<usize>(r));
        {
          // One lock acquisition covers the drop-rule filter and the stats
          // for the whole batch.
          MutexLock lk(sh_->mu);
          for (int m = 0; m < r; ++m) {
            Address srcAddr = makeAddress(ntohl(src[m].sin_addr.s_addr),
                                          ntohs(src[m].sin_port));
            if (sh_->dropPeers.count(srcAddr)) {
              ++sh_->stats.droppedByRule;
              continue;
            }
            ++sh_->stats.received;
            auto* data = bufs[static_cast<usize>(m)].data();
            batch->push_back(Datagram{
                srcAddr,
                std::vector<u8>(data, data + msgs[m].msg_len)});
          }
        }
        if (recvBatchHist_ != nullptr) {
          recvBatchHist_->record(static_cast<u64>(r));
        }
        if (!batch->empty()) {
          // ONE task per batch, on the endpoint's own executor — with a
          // ShardedExecutor that is the owning node's shard, so the
          // handler still runs in its one-callback-at-a-time world. The
          // handler is looked up at delivery time (setHandler swaps from
          // node restarts apply to queued batches) through a weak_ptr:
          // a batch outliving the transport locks nothing stale.
          exec->schedule(0, [w = std::weak_ptr<Shared>(sh_), dstAddr,
                             batch] {
            std::shared_ptr<Shared> sh = w.lock();
            if (!sh) return;  // transport destroyed; drop the batch
            ReceiveHandler h;
            {
              MutexLock lk(sh->mu);
              auto it = sh->endpoints.find(dstAddr);
              if (it == sh->endpoints.end() || it->second.fd < 0) return;
              h = it->second.handler;
            }
            if (!h) return;
            for (const Datagram& d : *batch) h(d.src, d.payload);
          });
        }
        if (static_cast<usize>(r) < kIoBatch) break;
      }
    }
    // Flush queued sends and honour close() exactly once per epoll cycle.
    bool stop;
    toSend.clear();
    {
      MutexLock lk(sh_->mu);
      toSend.swap(sh_->sendQueue);
      stop = sh_->closing;
    }
    if (!toSend.empty()) flushSends(toSend);
    if (stop) return;
  }
}

}  // namespace dharma::net
