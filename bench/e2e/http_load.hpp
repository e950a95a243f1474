#pragma once
/// \file http_load.hpp
/// \brief The HTTP workloads' machinery: a child gateway daemon driven
/// through its stdin side channel, and a single-threaded load generator
/// that pipelines requests over a few keep-alive connections.
///
/// The generator runs its event loop on the calling thread: one ppoll()
/// over every connection, nanosecond timeouts toward the next due time.
/// Open loop: request k is due at start + k/rate and is queued on the
/// connection with the fewest outstanding requests (the gateway answers a
/// connection's pipelined requests in order); its latency is measured from
/// the due time, so a stall also charges the requests queued behind it.
/// Closed loop: each connection keeps exactly one request outstanding.

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "support.hpp"

namespace bench {

/// A child `dharma_gateway` process. The daemon exits when its stdin
/// closes, so it cannot outlive this process even if the bench dies.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { stop(5.0); }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns \p argv and waits (up to \p timeoutS) for the
  /// "gateway listening on http://host:port" banner.
  bool start(const std::vector<std::string>& argv, double timeoutS,
             std::string& err);

  /// Sends `quit`, closes stdin and reaps the child; SIGKILL once
  /// \p timeoutS has passed. True when the daemon exited 0 on its own.
  bool stop(double timeoutS);

  pid_t pid() const { return pid_; }
  u16 port() const { return port_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int inFd_ = -1;
  int outFd_ = -1;
  u16 port_ = 0;
};

/// One HTTP request the workload wants sent, plus the ids it needs to
/// check the answer.
struct HttpOp {
  std::string method;
  std::string target;
  std::string body;
  u8 kind = 0;  ///< workload-defined route class
  u32 a = 0;    ///< workload-defined ids (resource, tag, ...)
  u32 b = 0;
};

/// One finished exchange, as the sink sees it. Times are steady-clock ns.
struct Exchange {
  u16 status = 0;  ///< 0 when the connection failed
  std::string_view body;
  i64 dueNs = 0;
  i64 sentNs = 0;
  i64 doneNs = 0;
};

class LoadGen {
 public:
  /// Produces the next op; false when the source is exhausted.
  using Source = std::function<bool(HttpOp&, i64 nowNs)>;
  using Sink = std::function<void(const HttpOp&, const Exchange&)>;
  /// Called on every turn of the event loop with the current time.
  using Tick = std::function<void(i64 nowNs)>;

  LoadGen() = default;
  ~LoadGen() { close(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool connect(u16 port, usize conns, std::string& err);
  void close();

  /// Open loop at \p rate requests/s for \p durationNs; it wakes at least
  /// at every due time, so \p tick runs at least that often.
  bool runOpen(double rate, i64 durationNs, const Source& src, const Sink& sink,
               const Tick& tick = {});
  /// Closed loop, one request outstanding per connection, for
  /// \p durationNs or until \p src is exhausted (durationNs <= 0: no limit).
  bool runClosed(i64 durationNs, const Source& src, const Sink& sink);

  /// Sends every op of \p ops through the closed loop and waits for all.
  bool runAll(const std::vector<HttpOp>& ops, const Sink& sink);

  /// One request on connection 0 (the loop must be idle); the response
  /// body lands in \p body.
  bool request(const HttpOp& op, u16& status, std::string& body);

  const std::string& error() const { return err_; }

  /// Wire form of \p op as sent (for the parser probe).
  static std::string serialize(const HttpOp& op);

 private:
  struct Pending {
    HttpOp op;
    i64 dueNs = 0;
    i64 sentNs = 0;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    usize outOff = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  bool loop(bool open, double rate, i64 durationNs, const Source& src,
            const Sink& sink, const Tick& tick);
  void enqueue(Conn& c, HttpOp op, i64 dueNs, i64 sentNs);
  bool flush(Conn& c);
  /// Reads what is available and completes every full response.
  bool drain(Conn& c, const Sink& sink);

  std::vector<Conn> conns_;
  std::string err_;
};

}  // namespace bench
