#pragma once
/// \file datagram.hpp
/// \brief The UDP-socket transport surface shared by the daemons, the
/// tests and the benchmark.
///
/// DatagramTransport extends Transport with the socket-world surface every
/// real UDP transport has (typed peer resolution, partition fault
/// injection, traffic counters, explicit close). Its one implementation is
/// EpollTransport (net/epoll_transport.hpp): an epoll event loop draining
/// sockets with batched recvmmsg and coalescing sends via sendmmsg.
///
/// Shared vocabulary types (TransportError, UdpStats, PeerResolution,
/// UdpConfig) live here so every caller speaks one failure and stats
/// language.

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/transport.hpp"
#include "util/types.hpp"

namespace dharma::obs {
class MetricsRegistry;
}  // namespace dharma::obs

namespace dharma::net {

/// Typed transport startup/teardown failure. Daemons catch this at boot,
/// print one line naming the kind ("bad-address: ..."), and exit with
/// status 2 — the startup-failure exit code, distinct from protocol errors
/// (1) and clean runs (0) — instead of aborting through an unhandled
/// exception. kind() is stable; what() carries the human detail.
class TransportError : public std::runtime_error {
 public:
  enum class Kind : u8 {
    kBadAddress,    ///< bind host is not a numeric IPv4 / "localhost"
    kSocketFailed,  ///< socket()/pipe()/eventfd()/epoll resource failure
    kBindFailed,    ///< bind()/getsockname() on an endpoint socket
    kClosed,        ///< operation on an already-closed transport
  };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

  const char* kindName() const {
    switch (kind_) {
      case Kind::kBadAddress: return "bad-address";
      case Kind::kSocketFailed: return "socket-failed";
      case Kind::kBindFailed: return "bind-failed";
      case Kind::kClosed: return "transport-closed";
    }
    return "unknown";
  }

 private:
  Kind kind_;
};

/// Aggregate traffic counters (mirrors NetworkStats where meaningful).
/// `sent` means accepted by sendmmsg(); that happens on the event thread,
/// a queue hop after send() returned — the datagram-network contract ("an
/// attempt, not delivery") already allows the gap.
struct UdpStats {
  u64 sent = 0;             ///< datagrams accepted by the kernel send call
  u64 received = 0;         ///< datagrams handed to an endpoint handler
  u64 droppedOversize = 0;  ///< payload exceeded the MTU
  u64 sendErrors = 0;       ///< kernel send call failed
  u64 bytesSent = 0;        ///< total payload bytes accepted
  u64 droppedByRule = 0;    ///< discarded by a dropPeer() partition rule
};

/// Typed outcome of DatagramTransport::resolvePeer. A failed resolution
/// names WHICH part of the spec was bad instead of collapsing to a silent
/// null address.
struct PeerResolution {
  enum class Error : u8 {
    kNone = 0,
    kBadHost,  ///< host part is not a numeric IPv4 (or "localhost")
    kBadPort,  ///< port part missing, non-numeric, or outside 1..65535
  };

  Address addr = kNullAddress;
  Error error = Error::kNone;

  bool ok() const { return error == Error::kNone; }

  const char* errorName() const {
    switch (error) {
      case Error::kNone: return "ok";
      case Error::kBadHost: return "bad-host";
      case Error::kBadPort: return "bad-port";
    }
    return "unknown";
  }
};

/// Configuration shared by every UDP backend.
struct UdpConfig {
  std::string bindHost = "127.0.0.1";  ///< local interface for sockets
  usize mtuBytes = 1400;               ///< payload cap, as in the paper
  /// Optional metrics sink: when set, backends record `dharma_udp_send_us`
  /// (kernel send latency) and `dharma_udp_recv_batch_datagrams` /
  /// `dharma_udp_recv_batch_us` per drained receive batch. Must outlive
  /// the transport; null disables at one-branch cost.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Transport over real UDP sockets, whatever the event backend. Extends
/// the protocol-facing Transport contract with the operational surface the
/// daemons and the cluster harness script against.
class DatagramTransport : public Transport {
 public:
  /// Resolves a peer spec — "ip:port", "localhost:port", or a bare port
  /// (host defaults to the bind host) — to a packed Address. Any numeric
  /// IPv4 is accepted; a non-numeric host or out-of-range port yields the
  /// matching typed error, never a silent null.
  PeerResolution resolvePeer(const std::string& hostPort) const;

  /// Partition fault injection: silently discard every datagram sent to or
  /// received from \p peer until undropPeer()/clearDroppedPeers().
  virtual void dropPeer(Address peer) = 0;

  /// Removes one drop rule; returns true if it was present.
  virtual bool undropPeer(Address peer) = 0;

  /// Removes every drop rule; returns how many were installed.
  virtual usize clearDroppedPeers() = 0;

  /// Number of drop rules currently installed.
  virtual usize droppedPeerCount() const = 0;

  /// Stops the event/receive machinery and closes every socket
  /// (idempotent; destructors call it). In-flight handler tasks already
  /// posted to an executor still run. Must return promptly — wakeups are
  /// event-driven, so close() never waits out a poll timeout.
  virtual void close() = 0;

  virtual UdpStats stats() const = 0;

  /// The backend's shared configuration (bind host, MTU, metrics sink).
  virtual const UdpConfig& config() const = 0;
};

/// The event backend behind DatagramTransport. epoll is the only one; the
/// enum and factory keep one construction call for callers that do not
/// name the concrete class.
enum class NetBackend : u8 {
  kEpoll,  ///< Linux epoll + recvmmsg/sendmmsg (EpollTransport)
};

NetBackend defaultNetBackend();

/// Instantiates \p backend. \p defaultExec is where deliveries for
/// endpoints registered without an explicit executor are posted (and must
/// be thread-safe — a RealTimeExecutor). Throws TransportError
/// (kBadAddress/kSocketFailed) like the concrete constructor.
std::unique_ptr<DatagramTransport> makeDatagramTransport(NetBackend backend,
                                                         Executor& defaultExec,
                                                         UdpConfig cfg);

/// Parses a dotted-quad IPv4 (or the "localhost" alias) into host byte
/// order; nullopt on anything else. Numeric addresses only — no DNS.
std::optional<u32> parseIpv4Host(const std::string& host);

}  // namespace dharma::net
