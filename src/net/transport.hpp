#pragma once
/// \file transport.hpp
/// \brief The datagram seam between the protocol engine and the wire.
///
/// KademliaNode speaks to the world exclusively through this interface.
/// Two implementations exist:
///
///  - net::Network (alias net::SimTransport): the simulated datagram
///    network — latency model, loss process, MTU enforcement, scripted
///    crashes — delivering via the Simulator. Deterministic per seed.
///  - net::EpollTransport (net/epoll_transport.hpp): real UDP sockets on
///    the loopback (or any) interface; an event thread hands datagrams to
///    the node's executor, so protocol callbacks still run one at a time.
///
/// Semantics shared by all implementations (the paper runs DHARMA "on UDP
/// packets", and the simulator always mirrored UDP):
///
///  - datagrams are unreliable: send() returning true promises an attempt,
///    not delivery — loss, drops and dead destinations are silent,
///  - payloads above mtuBytes() are rejected synchronously (send() returns
///    false) so the index-side filtering contract stays observable,
///  - receive handlers are invoked on the endpoint's executor, never
///    concurrently with other protocol callbacks.

#include <functional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dharma::net {

class Executor;  // net/executor.hpp; referenced by the sharding overload

/// Endpoint address: a 48-bit (IPv4, port) pair packed into a u64 —
/// `(ip << 16) | port`, both in host byte order. On EpollTransport the
/// Address IS the wire address of the endpoint's socket, so the Contacts
/// nodes gossip in FIND_NODE replies stay routable between processes on
/// different hosts with no translation layer. The simulated network keeps
/// handing out dense indices (ip part 0), which round-trip losslessly
/// through the same (ip, port) wire codec.
using Address = u64;

/// Address value meaning "no endpoint": all 48 address bits set, so it
/// survives an encode/decode round trip like any other address.
constexpr Address kNullAddress = 0xFFFF'FFFF'FFFFULL;

/// Packs (IPv4 in host order, port) into an Address.
constexpr Address makeAddress(u32 ipv4, u16 port) {
  return (static_cast<Address>(ipv4) << 16) | port;
}

/// IPv4 part of an Address, host byte order.
constexpr u32 addressIp(Address a) { return static_cast<u32>(a >> 16); }

/// Port part of an Address.
constexpr u16 addressPort(Address a) { return static_cast<u16>(a & 0xFFFF); }

/// Renders an Address as dotted-quad "a.b.c.d:port".
inline std::string formatAddress(Address a) {
  u32 ip = addressIp(a);
  return std::to_string((ip >> 24) & 0xFF) + '.' +
         std::to_string((ip >> 16) & 0xFF) + '.' +
         std::to_string((ip >> 8) & 0xFF) + '.' + std::to_string(ip & 0xFF) +
         ':' + std::to_string(addressPort(a));
}

/// Datagram receive callback: (source address, payload bytes).
using ReceiveHandler = std::function<void(Address, const std::vector<u8>&)>;

/// Datagram transport interface (see file comment for the contract).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a local endpoint; the returned Address is never reused.
  virtual Address registerEndpoint(ReceiveHandler handler) = 0;

  /// Registers a local endpoint whose datagrams are delivered on \p
  /// deliverTo instead of the transport's default executor. This is the
  /// sharding hook: each KademliaNode hands in its own executor, so with a
  /// ShardedExecutor a datagram for node X always lands on X's shard — the
  /// one-callback-at-a-time world becomes per shard. The simulated Network
  /// ignores the hint (all simulated nodes share the one Simulator);
  /// real transports honour it per endpoint.
  virtual Address registerEndpoint(ReceiveHandler handler,
                                   Executor& deliverTo) {
    (void)deliverTo;
    return registerEndpoint(std::move(handler));
  }

  /// Replaces the handler (used when a node restarts with fresh state).
  virtual void setHandler(Address a, ReceiveHandler handler) = 0;

  /// Sends \p payload from \p from to \p to. Returns false if the datagram
  /// was rejected synchronously (oversize payload, closed endpoint); loss
  /// and dead-destination drops stay silent, as on any datagram network.
  virtual bool send(Address from, Address to, std::vector<u8> payload) = 0;

  /// True if the endpoint currently accepts datagrams. Simulated crashes
  /// report false; a real socket is online until closed.
  virtual bool isOnline(Address a) const = 0;

  /// Maximum payload accepted by send(). Protocol code sizes replies and
  /// splits STORE batches against this.
  virtual usize mtuBytes() const = 0;
};

}  // namespace dharma::net
