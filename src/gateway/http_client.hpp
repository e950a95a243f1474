#pragma once
/// \file http_client.hpp
/// \brief Minimal blocking HTTP/1.1 client for exercising the gateway.
///
/// Shared by the e2e tests (tests/test_gateway.cpp) and the cluster
/// harness's availability probes — everything that needs to speak to the
/// gateway over a real socket without linking curl. Keep-alive by default; one
/// response is read per request(); sendRaw()/readResponse() split the two
/// halves for pipelining tests. Interim 1xx responses are skipped.
///
/// This is a test/bench utility, not a production client: responses must
/// carry Content-Length (the gateway always does), and redirects, TLS and
/// chunked bodies are out of scope.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace dharma::gateway {

struct ClientResponse {
  u16 status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  ///< lower-cased names
  std::string body;

  std::optional<std::string_view> header(std::string_view name) const;
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to host:port (IPv4 literal) with send/recv timeouts.
  bool connect(const std::string& host, u16 port, int timeoutMs = 5000);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends one request and reads one response on the kept-alive
  /// connection. nullopt on any I/O failure or timeout (the connection is
  /// closed — reconnect to retry).
  std::optional<ClientResponse> request(const std::string& method,
                                        const std::string& target,
                                        const std::string& body = "",
                                        const std::string& contentType = "");

  /// Raw bytes on the wire (pipelining tests write several requests at
  /// once, then read responses back in order).
  bool sendRaw(std::string_view bytes);

  /// Reads the next response off the connection.
  std::optional<ClientResponse> readResponse();

 private:
  int fd_ = -1;
  std::string rx_;   ///< buffered bytes past the last parsed response
};

}  // namespace dharma::gateway
