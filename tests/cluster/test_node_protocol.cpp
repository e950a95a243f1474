/// \file test_node_protocol.cpp
/// \brief Line-protocol coverage for the dharma_node daemon, driven over
/// real pipes against the real binary.
///
/// Every command's OK and ERR shape, stats field inventory, malformed
/// input rejection, exit-code accounting, and the SIGTERM graceful-stop
/// contract — all of it the surface the cluster harness (and any operator
/// script) depends on. The daemon under test is the installed binary, not
/// a stub: these are the repo's smallest real-process tests.

#include <csignal>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "subprocess.hpp"

#ifndef DHARMA_NODE_BIN
#error "build must define DHARMA_NODE_BIN (path to the dharma_node binary)"
#endif

namespace dharma::cluster {
namespace {

constexpr int kCmdMs = 10'000;
constexpr int kBootMs = 15'000;

/// Spawns one daemon (2 in-process nodes so stores replicate) and waits
/// out its boot banner. Maintenance stays on defaults — these tests are
/// short enough that no timer ever fires.
class NodeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);
    ASSERT_TRUE(proc.spawn(DHARMA_NODE_BIN,
                           {"--nodes", "2", "--rpc-timeout-ms", "250"}));
    auto listen = proc.readLineWithPrefix("node 0 listening on ", kBootMs);
    ASSERT_TRUE(listen.has_value()) << "no listening banner";
    selfAddr = listen->substr(std::string("node 0 listening on ").size());
    ASSERT_TRUE(proc.readLineWithPrefix("cluster up", kBootMs).has_value());
  }

  void TearDown() override {
    if (proc.running()) {
      proc.sendLine("quit");
      proc.wait(5000);
    }
  }

  std::string cmd(const std::string& c) {
    auto r = proc.command(c, kCmdMs);
    EXPECT_TRUE(r.has_value()) << "no reply to: " << c;
    return r.value_or("");
  }

  static bool startsWith(const std::string& s, const std::string& p) {
    return s.rfind(p, 0) == 0;
  }

  NodeProcess proc;
  std::string selfAddr;
};

TEST_F(NodeProtocolTest, HelpAnswersOk) {
  EXPECT_TRUE(startsWith(cmd("help"), "OK commands:"));
}

TEST_F(NodeProtocolTest, UnknownCommandIsTypedErr) {
  EXPECT_TRUE(startsWith(cmd("frobnicate"), "ERR unknown command"));
}

TEST_F(NodeProtocolTest, CommentsAndBlanksAreIgnored) {
  // Neither a comment nor an empty line produces a reply; the next real
  // command's reply must come through cleanly, proving nothing queued up.
  ASSERT_TRUE(proc.sendLine("# a comment"));
  ASSERT_TRUE(proc.sendLine(""));
  EXPECT_TRUE(startsWith(cmd("help"), "OK commands:"));
}

TEST_F(NodeProtocolTest, InsertTagSearchResolveHappyPath) {
  EXPECT_TRUE(startsWith(cmd("insert song-a uri://song-a rock jazz"),
                         "OK inserted song-a"));
  EXPECT_TRUE(startsWith(cmd("tag song-a blues"), "OK tagged song-a"));
  std::string s = cmd("search rock");
  EXPECT_TRUE(startsWith(s, "OK search rock:"));
  // Detail lines ride AFTER the OK line, two-space indented — the shape
  // the harness relies on to skip them.
  auto detail = proc.readLineWithPrefix("  resource song-a", 2000);
  EXPECT_TRUE(detail.has_value()) << "search printed no detail lines";
  std::string r = cmd("resolve song-a");
  EXPECT_TRUE(startsWith(r, "OK song-a -> uri://song-a")) << r;
}

TEST_F(NodeProtocolTest, UsageErrorsForEveryCommand) {
  EXPECT_TRUE(startsWith(cmd("insert"), "ERR usage: insert"));
  EXPECT_TRUE(startsWith(cmd("insert onlyres"), "ERR usage: insert"));
  EXPECT_TRUE(startsWith(cmd("tag"), "ERR usage: tag"));
  EXPECT_TRUE(startsWith(cmd("tag res-but-no-tags"), "ERR usage: tag"));
  EXPECT_TRUE(startsWith(cmd("search"), "ERR usage: search"));
  EXPECT_TRUE(startsWith(cmd("resolve"), "ERR usage: resolve"));
  EXPECT_TRUE(startsWith(cmd("ping"), "ERR usage: ping"));
  EXPECT_TRUE(startsWith(cmd("drop"), "ERR usage: drop"));
  EXPECT_TRUE(startsWith(cmd("undrop"), "ERR usage: undrop"));
}

TEST_F(NodeProtocolTest, ResolveMissIsTypedNotFound) {
  std::string r = cmd("resolve never-inserted");
  EXPECT_TRUE(startsWith(r, "ERR resolve never-inserted:")) << r;
  EXPECT_NE(r.find("not-found"), std::string::npos) << r;
}

TEST_F(NodeProtocolTest, PingSelfAndTypedResolutionErrors) {
  EXPECT_TRUE(startsWith(cmd("ping " + selfAddr), "OK ping " + selfAddr));
  std::string badHost = cmd("ping not-a-host:9000");
  EXPECT_TRUE(startsWith(badHost, "ERR ping")) << badHost;
  EXPECT_NE(badHost.find("bad-host"), std::string::npos) << badHost;
  std::string badPort = cmd("ping 127.0.0.1:notaport");
  EXPECT_TRUE(startsWith(badPort, "ERR ping")) << badPort;
  EXPECT_NE(badPort.find("bad-port"), std::string::npos) << badPort;
}

TEST_F(NodeProtocolTest, PingDeadPeerTimesOut) {
  // Discard-port style probe: a port nothing on loopback listens on.
  std::string r = cmd("ping 127.0.0.1:9");
  EXPECT_TRUE(startsWith(r, "ERR ping 127.0.0.1:9: timeout")) << r;
}

TEST_F(NodeProtocolTest, DropUndropLifecycle) {
  EXPECT_EQ(cmd("drop 127.0.0.1:7001"), "OK drop 127.0.0.1:7001 (rules=1)");
  EXPECT_EQ(cmd("drop 127.0.0.1:7002"), "OK drop 127.0.0.1:7002 (rules=2)");
  EXPECT_EQ(cmd("undrop 127.0.0.1:7001"),
            "OK undrop 127.0.0.1:7001 (removed=1)");
  EXPECT_EQ(cmd("undrop 127.0.0.1:7001"),
            "OK undrop 127.0.0.1:7001 (removed=0)");
  EXPECT_EQ(cmd("undrop all"), "OK undrop all (removed=1)");
  EXPECT_TRUE(startsWith(cmd("drop nonsense-host:1"), "ERR usage: drop"));
}

TEST_F(NodeProtocolTest, StatsCarriesEveryField) {
  cmd("insert song-x uri://song-x rock");
  std::string s = cmd("stats");
  ASSERT_TRUE(startsWith(s, "OK stats:")) << s;
  for (const char* field :
       {" ops=", " failures=", " lookups=", " rt=", " addr=", " droprules=",
        " sent=", " received=", " bytes=", " oversize=", " ruledrops="}) {
    EXPECT_NE(s.find(field), std::string::npos)
        << "stats line missing '" << field << "': " << s;
  }
  // The advertised address must be the one from the boot banner.
  EXPECT_NE(s.find(" addr=" + selfAddr), std::string::npos) << s;
}

TEST_F(NodeProtocolTest, CleanQuitExitsZero) {
  ASSERT_TRUE(proc.sendLine("quit"));
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, "done");
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 0);
}

TEST_F(NodeProtocolTest, ErrCommandFlipsExitCode) {
  EXPECT_TRUE(startsWith(cmd("resolve missing-thing"), "ERR"));
  ASSERT_TRUE(proc.sendLine("quit"));
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, "done (with errors)");
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 1);
}

TEST_F(NodeProtocolTest, StdinEofIsACleanQuit) {
  proc.closeStdin();
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 0);
}

TEST_F(NodeProtocolTest, SigtermIsAGracefulStop) {
  ASSERT_TRUE(proc.signal(SIGTERM));
  auto bye = proc.readLineWithPrefix("OK shutdown", 5000);
  ASSERT_TRUE(bye.has_value()) << "no shutdown banner after SIGTERM";
  EXPECT_EQ(*bye, "OK shutdown signal=term");
  auto done = proc.readLineWithPrefix("done", 5000);
  ASSERT_TRUE(done.has_value());
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited) << "SIGTERM must exit, not die by signal";
  EXPECT_EQ(es->code, 0);
}

TEST_F(NodeProtocolTest, SigintIsAGracefulStop) {
  ASSERT_TRUE(proc.signal(SIGINT));
  auto bye = proc.readLineWithPrefix("OK shutdown", 5000);
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(*bye, "OK shutdown signal=int");
  auto es = proc.wait(5000);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 0);
}

/// Boot-time flags outside the fixture: bad --drop-peers must be a
/// diagnosed config error (exit 2), not a silently ignored rule.
TEST(NodeProtocolBoot, BadDropPeersSpecExitsTwo) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN,
                      {"--nodes", "1", "--drop-peers", "garbage-host:x"}));
  auto es = p.wait(kBootMs);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 2);
}

TEST(NodeProtocolBoot, DropPeersFlagInstallsRules) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN,
                      {"--nodes", "1", "--drop-peers",
                       "127.0.0.1:7001,127.0.0.1:7002"}));
  ASSERT_TRUE(p.readLineWithPrefix("cluster up", kBootMs).has_value());
  auto s = p.command("stats", kCmdMs);
  ASSERT_TRUE(s.has_value());
  EXPECT_NE(s->find(" droprules=2"), std::string::npos) << *s;
  p.sendLine("quit");
  p.wait(5000);
}

/// Flags the daemon cannot run with are refused before any node binds a
/// socket: exit 2 and no listening banner (the typed "ERR startup" line
/// goes to stderr).
void expectStartupRefusal(const std::vector<std::string>& args) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN, args));
  EXPECT_FALSE(p.readLineWithPrefix("node 0 listening", kBootMs).has_value());
  auto es = p.wait(kBootMs);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 2);
}

TEST(NodeProtocolBoot, NonNumericNodesExitsTwo) {
  expectStartupRefusal({"--nodes", "abc"});
}

TEST(NodeProtocolBoot, NonNumericShardsExitsTwo) {
  expectStartupRefusal({"--nodes", "1", "--shards", "abc"});
}

TEST(NodeProtocolBoot, UnopenableMetricsOutExitsTwo) {
  expectStartupRefusal(
      {"--nodes", "1", "--metrics-out", "/nonexistent-dir/m.jsonl"});
}

TEST(NodeProtocolBoot, BadJoinSpecExitsTwo) {
  std::signal(SIGPIPE, SIG_IGN);
  NodeProcess p;
  ASSERT_TRUE(p.spawn(DHARMA_NODE_BIN,
                      {"--nodes", "1", "--join", "not-a-host:9"}));
  auto es = p.wait(kBootMs);
  ASSERT_TRUE(es.has_value());
  EXPECT_TRUE(es->exited);
  EXPECT_EQ(es->code, 2);
}

}  // namespace
}  // namespace dharma::cluster
