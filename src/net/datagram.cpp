#include "net/datagram.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>

#include <cstdlib>

#include "net/epoll_transport.hpp"

namespace dharma::net {

std::optional<u32> parseIpv4Host(const std::string& host) {
  in_addr a{};
  const std::string& h = host == "localhost" ? std::string("127.0.0.1") : host;
  if (inet_pton(AF_INET, h.c_str(), &a) != 1) return std::nullopt;
  return ntohl(a.s_addr);
}

PeerResolution DatagramTransport::resolvePeer(
    const std::string& hostPort) const {
  PeerResolution res;
  auto colon = hostPort.rfind(':');
  std::string host = colon == std::string::npos ? config().bindHost
                                                : hostPort.substr(0, colon);
  std::string portStr =
      colon == std::string::npos ? hostPort : hostPort.substr(colon + 1);
  auto ip = parseIpv4Host(host);
  if (!ip) {
    res.error = PeerResolution::Error::kBadHost;
    return res;
  }
  char* end = nullptr;
  long port = std::strtol(portStr.c_str(), &end, 10);
  if (end == portStr.c_str() || *end != '\0' || port <= 0 || port > 65535) {
    res.error = PeerResolution::Error::kBadPort;
    return res;
  }
  res.addr = makeAddress(*ip, static_cast<u16>(port));
  return res;
}

NetBackend defaultNetBackend() { return NetBackend::kEpoll; }

std::unique_ptr<DatagramTransport> makeDatagramTransport(NetBackend /*kEpoll*/,
                                                         Executor& defaultExec,
                                                         UdpConfig cfg) {
  return std::make_unique<EpollTransport>(defaultExec, std::move(cfg));
}

}  // namespace dharma::net
