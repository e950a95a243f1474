#include "http_load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

extern char** environ;

namespace bench {

namespace {

constexpr i64 kResponseTimeoutNs = 20 * kNsPerS;
constexpr const char kBanner[] = "gateway listening on http://";

}  // namespace

// ---------------------------------------------------------------------------
// DaemonProcess
// ---------------------------------------------------------------------------

bool DaemonProcess::start(const std::vector<std::string>& argv, double timeoutS,
                          std::string& err) {
  int inPipe[2], outPipe[2];
  if (::pipe2(inPipe, O_CLOEXEC) != 0) {
    err = "pipe failed";
    return false;
  }
  if (::pipe2(outPipe, O_CLOEXEC) != 0) {
    ::close(inPipe[0]);
    ::close(inPipe[1]);
    err = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, inPipe[0], 0);
  posix_spawn_file_actions_adddup2(&fa, outPipe[1], 1);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(inPipe[0]);
  ::close(outPipe[1]);
  if (rc != 0) {
    ::close(inPipe[1]);
    ::close(outPipe[0]);
    err = std::string("cannot spawn ") + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  inFd_ = inPipe[1];
  outFd_ = outPipe[0];

  std::string seen;
  const i64 deadline = nowNs() + static_cast<i64>(timeoutS * 1e9);
  for (;;) {
    usize at = seen.find(kBanner);
    if (at != std::string::npos) {
      usize nl = seen.find('\n', at);
      if (nl != std::string::npos) {
        std::string hostPort = seen.substr(at + sizeof(kBanner) - 1,
                                           nl - at - (sizeof(kBanner) - 1));
        usize colon = hostPort.rfind(':');
        port_ = colon == std::string::npos
                    ? 0
                    : static_cast<u16>(std::atoi(hostPort.c_str() + colon + 1));
        if (port_ != 0) return true;
        err = "unparseable banner: " + hostPort;
        stop(2.0);
        return false;
      }
    }
    i64 left = deadline - nowNs();
    if (left <= 0) {
      err = "daemon did not report its port in time";
      stop(2.0);
      return false;
    }
    pollfd p{outFd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left / kNsPerMs) + 1) < 0 && errno != EINTR) {
      err = "poll on daemon stdout failed";
      stop(2.0);
      return false;
    }
    if (p.revents == 0) continue;
    char buf[4096];
    ssize_t n = ::read(outFd_, buf, sizeof(buf));
    if (n <= 0) {
      err = "daemon exited during start-up";
      stop(2.0);
      return false;
    }
    seen.append(buf, static_cast<usize>(n));
  }
}

bool DaemonProcess::stop(double timeoutS) {
  if (pid_ <= 0) return true;
  if (inFd_ >= 0) {
    static constexpr char kQuit[] = "quit\n";
    [[maybe_unused]] ssize_t w = ::write(inFd_, kQuit, sizeof(kQuit) - 1);
    ::close(inFd_);
    inFd_ = -1;
  }
  const i64 deadline = nowNs() + static_cast<i64>(timeoutS * 1e9);
  int status = 0;
  bool reaped = false;
  while (!reaped) {
    // Keep the stdout pipe drained so the daemon never blocks on a write.
    if (outFd_ >= 0) {
      pollfd p{outFd_, POLLIN, 0};
      if (::poll(&p, 1, 20) > 0) {
        char buf[4096];
        if (::read(outFd_, buf, sizeof(buf)) <= 0) {
          ::close(outFd_);
          outFd_ = -1;
        }
      }
    } else {
      ::usleep(10'000);
    }
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped = true;
    } else if (nowNs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      reaped = true;
      status = -1;
    }
  }
  if (outFd_ >= 0) {
    ::close(outFd_);
    outFd_ = -1;
  }
  pid_ = -1;
  return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------------------------
// LoadGen
// ---------------------------------------------------------------------------

std::string LoadGen::serialize(const HttpOp& op) {
  std::string s = op.method;
  s += ' ';
  s += op.target;
  s += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!op.body.empty() || op.method == "POST" || op.method == "PUT") {
    s += "Content-Length: ";
    s += std::to_string(op.body.size());
    s += "\r\n";
  }
  s += "\r\n";
  s += op.body;
  return s;
}

bool LoadGen::connect(u16 port, usize conns, std::string& err) {
  close();
  for (usize i = 0; i < conns; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      err = "socket failed";
      close();
      return false;
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      err = std::string("connect failed: ") + std::strerror(errno);
      ::close(fd);
      close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    Conn c;
    c.fd = fd;
    conns_.push_back(std::move(c));
  }
  return true;
}

void LoadGen::close() {
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
}

void LoadGen::enqueue(Conn& c, HttpOp op, i64 dueNs, i64 sentNs) {
  c.out += serialize(op);
  c.pending.push_back(Pending{std::move(op), dueNs, sentNs});
}

bool LoadGen::flush(Conn& c) {
  while (c.outOff < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.outOff, c.out.size() - c.outOff,
                       MSG_NOSIGNAL);
    if (n > 0) {
      c.outOff += static_cast<usize>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    err_ = "send failed";
    return false;
  }
  if (c.outOff == c.out.size()) {
    c.out.clear();
    c.outOff = 0;
  }
  return true;
}

namespace {

/// Length of the first complete response in \p in (0 when incomplete);
/// sets \p status and the body's offset/length.
/// \p in views the tail of a std::string, so the numeric parses below
/// always stop at a terminator.
usize parseResponse(std::string_view in, u16& status, usize& bodyOff,
                    usize& bodyLen) {
  usize hdrEnd = in.find("\r\n\r\n");
  if (hdrEnd == std::string_view::npos) return 0;
  if (hdrEnd < 12 || in.substr(0, 5) != "HTTP/") return std::string_view::npos;
  status = static_cast<u16>(std::atoi(in.data() + 9));
  usize len = 0;
  usize p = 0;
  while (p < hdrEnd) {
    usize eol = in.find("\r\n", p);
    if (eol - p > 15 && strncasecmp(in.data() + p, "content-length:", 15) == 0) {
      len = static_cast<usize>(std::atoll(in.data() + p + 15));
    }
    p = eol + 2;
  }
  if (in.size() < hdrEnd + 4 + len) return 0;
  bodyOff = hdrEnd + 4;
  bodyLen = len;
  return hdrEnd + 4 + len;
}

}  // namespace

bool LoadGen::drain(Conn& c, const Sink& sink) {
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<usize>(n));
      continue;
    }
    if (n == 0) {
      if (!c.pending.empty()) {
        err_ = "gateway closed a connection with requests outstanding";
        return false;
      }
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    err_ = "recv failed";
    return false;
  }
  usize consumed = 0;
  for (;;) {
    u16 status = 0;
    usize bodyOff = 0, bodyLen = 0;
    std::string_view view = std::string_view(c.in).substr(consumed);
    usize used = parseResponse(view, status, bodyOff, bodyLen);
    if (used == std::string_view::npos) {
      err_ = "malformed HTTP response";
      return false;
    }
    if (used == 0) break;
    if (c.pending.empty()) {
      err_ = "response without a request";
      return false;
    }
    Pending p = std::move(c.pending.front());
    c.pending.pop_front();
    Exchange ex;
    ex.status = status;
    ex.body = view.substr(bodyOff, bodyLen);
    ex.dueNs = p.dueNs;
    ex.sentNs = p.sentNs;
    ex.doneNs = nowNs();
    sink(p.op, ex);
    consumed += used;
  }
  if (consumed != 0) c.in.erase(0, consumed);
  return true;
}

bool LoadGen::loop(bool open, double rate, i64 durationNs, const Source& src,
                   const Sink& sink, const Tick& tick) {
  if (conns_.empty()) {
    err_ = "not connected";
    return false;
  }
  const i64 start = nowNs();
  const i64 end = durationNs > 0 ? start + durationNs : INT64_MAX;
  const double periodNs = open ? 1e9 / rate : 0.0;
  u64 k = 0;
  bool issuing = true;
  std::vector<pollfd> pfds(conns_.size());
  for (;;) {
    i64 now = nowNs();
    if (tick) tick(now);
    if (issuing) {
      if (open) {
        for (;;) {
          i64 due = start + static_cast<i64>(static_cast<double>(k) * periodNs);
          if (due > now) break;
          if (due >= end) {
            issuing = false;
            break;
          }
          HttpOp op;
          if (!src(op, now)) {
            issuing = false;
            break;
          }
          Conn* best = &conns_[0];
          for (auto& c : conns_) {
            if (c.pending.size() < best->pending.size()) best = &c;
          }
          enqueue(*best, std::move(op), due, nowNs());
          ++k;
        }
      } else if (now >= end) {
        issuing = false;
      } else {
        for (auto& c : conns_) {
          if (!c.pending.empty()) continue;
          HttpOp op;
          if (!src(op, now)) {
            issuing = false;
            break;
          }
          i64 t = nowNs();
          enqueue(c, std::move(op), t, t);
        }
      }
    }
    bool anyPending = false;
    for (auto& c : conns_) {
      if (!flush(c)) return false;
      if (!c.pending.empty()) {
        anyPending = true;
        if (now - c.pending.front().sentNs > kResponseTimeoutNs) {
          err_ = "no response within 20 s";
          return false;
        }
      }
    }
    if (!issuing && !anyPending) return true;

    i64 waitNs = 50 * kNsPerMs;
    if (issuing && open) {
      i64 due = start + static_cast<i64>(static_cast<double>(k) * periodNs);
      waitNs = std::max<i64>(0, std::min(waitNs, due - nowNs()));
    }
    for (usize i = 0; i < conns_.size(); ++i) {
      pfds[i] = {conns_[i].fd,
                 static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    timespec ts{static_cast<time_t>(waitNs / kNsPerS),
                static_cast<long>(waitNs % kNsPerS)};
    int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      err_ = "ppoll failed";
      return false;
    }
    for (usize i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!drain(conns_[i], sink)) return false;
      }
    }
  }
}

bool LoadGen::runOpen(double rate, i64 durationNs, const Source& src,
                      const Sink& sink, const Tick& tick) {
  return loop(true, rate, durationNs, src, sink, tick);
}

bool LoadGen::runClosed(i64 durationNs, const Source& src, const Sink& sink) {
  return loop(false, 0.0, durationNs, src, sink, {});
}

bool LoadGen::runAll(const std::vector<HttpOp>& ops, const Sink& sink) {
  usize next = 0;
  return loop(false, 0.0, 0,
              [&](HttpOp& op, i64) {
                if (next >= ops.size()) return false;
                op = ops[next++];
                return true;
              },
              sink, {});
}

bool LoadGen::request(const HttpOp& op, u16& status, std::string& body) {
  if (conns_.empty()) {
    err_ = "not connected";
    return false;
  }
  Conn& c = conns_[0];
  enqueue(c, op, nowNs(), nowNs());
  bool got = false;
  const i64 deadline = nowNs() + kResponseTimeoutNs;
  Sink capture = [&](const HttpOp&, const Exchange& ex) {
    status = ex.status;
    body.assign(ex.body);
    got = true;
  };
  while (!got) {
    if (!flush(c)) return false;
    if (nowNs() > deadline) {
      err_ = "no response within 20 s";
      return false;
    }
    pollfd p{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&p, 1, 50) < 0 && errno != EINTR) {
      err_ = "poll failed";
      return false;
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!drain(c, capture)) return false;
    }
  }
  return true;
}

}  // namespace bench
