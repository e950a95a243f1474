/// \file http_workloads.cpp
/// \brief browse_http and tag_http: a child gateway daemon (16 nodes on 4
/// shards, read-through cache on — the daemon's default) driven over four
/// keep-alive connections. Phases: set-up (repeated; launch + preload),
/// warm-up, open loop at a fixed rate (latency), closed loop (throughput),
/// output checks, and in traced runs the probe phase.
///
/// 16 nodes, not 8: with the default replication factor of 8, an 8-node
/// overlay stores every block on every node, so no read would ever leave
/// the gateway's node and the UDP layer would sit idle under browse_http.

#include <deque>
#include <iostream>

#include "gateway/http.hpp"
#include "workload/dataset.hpp"
#include "workload/readwl.hpp"
#include "workload/trace.hpp"
#include "http_load.hpp"
#include "workloads.hpp"

namespace bench {

using namespace dharma;

namespace {

constexpr usize kConns = 4;
constexpr double kHttpScale = 0.0005;
constexpr u32 kBrowseSteps = 3;
constexpr usize kMaxTagsPerPut = 48;  ///< keeps request lines far below 4 KiB

/// Open-loop rates, frozen at half the closed-loop throughput the seed
/// commit reached on a 4-core Xeon (rounded down to a multiple of 50).
constexpr double kBrowseRate = 11550;
constexpr double kTagRate = 500;

/// p99 latency limits; a failed request counts as over the limit.
constexpr double kBrowseLimitMs = 10;
constexpr double kTagLimitMs = 25;

const std::vector<std::string> kDaemonFlags = {"--bind", "127.0.0.1:0", "--nodes",
                                               "16", "--shards", "4"};

enum Route : u8 { kPut = 0, kPostTags = 1, kSearch = 2, kResolve = 3, kRouteCount = 4 };
constexpr const char* kRouteLabel[] = {"put_resource", "post_tags", "search", "resolve"};

struct HttpWorld {
  wl::Dataset data;
  std::vector<u32> tagByRank;  ///< used tags, most resources first (browse)
  std::vector<u32> zipfRanks;  ///< browse read trace, flattened
  wl::Trace replay;            ///< tag_http annotations after the preload
  std::vector<u32> resources;  ///< resources the preload inserted
  std::vector<HttpOp> preload;
  DaemonProcess daemon;
  LoadGen gen;
  SetupTimes times;
};

std::string resourceName(const HttpWorld& w, u32 r) { return w.data.resources.name(r); }

/// Builds the dataset, request traces and preload ops, launches the daemon
/// and preloads it. \p err is set on failure.
std::unique_ptr<HttpWorld> httpSetup(const BenchConfig& cfg, bool browse,
                                     std::string& err) {
  auto w = std::make_unique<HttpWorld>();
  const i64 t0 = nowNs();
  w->times.startNs = t0;
  const double scale = cfg.smoke ? 0.0002 : kHttpScale;
  // Each workload serves one fixed synthetic folksonomy (the two differ);
  // the seed varies the request stream, not the data held, so runs with
  // different seeds compare like with like.
  const u64 dataSeed = splitmix64(browse ? 0xB0u : 0x7Au);
  w->data = wl::Dataset::synthetic(wl::SynthConfig::lastfmScaled(scale, dataSeed));
  const folk::Trg& trg = w->data.trg;
  const i64 t1 = nowNs();

  if (browse) {
    for (u32 t = 0; t < trg.tagSpan(); ++t) {
      if (trg.tagDegree(t) > 0) w->tagByRank.push_back(t);
    }
    std::stable_sort(w->tagByRank.begin(), w->tagByRank.end(), [&](u32 a, u32 b) {
      return trg.tagDegree(a) > trg.tagDegree(b);
    });
    wl::ZipfReadConfig zc;
    zc.tagUniverse = static_cast<u32>(w->tagByRank.size());
    zc.stepsPerSession = 16;
    zc.sessions = 16'384;
    zc.alpha = 1.0;
    zc.seed = splitmix64(cfg.seed ^ 0x21Fu);
    for (const auto& session : wl::makeZipfReadTrace(zc)) {
      w->zipfRanks.insert(w->zipfRanks.end(), session.begin(), session.end());
    }
    for (u32 r = 0; r < trg.resourceSpan(); ++r) {
      auto edges = trg.tagsOf(r);
      if (edges.empty()) continue;
      w->resources.push_back(r);
      HttpOp put{"PUT", "/resources/" + resourceName(*w, r), "uri://" + resourceName(*w, r),
                 kPut, r, 0};
      usize i = 0;
      for (; i < edges.size() && i < kMaxTagsPerPut; ++i) {
        put.target += (i == 0 ? "?tag=" : "&tag=") + w->data.tags.name(edges[i].tag);
      }
      w->preload.push_back(std::move(put));
      if (i < edges.size()) {
        HttpOp rest{"POST", "/resources/" + resourceName(*w, r) + "/tags", "", kPostTags, r, 0};
        for (; i < edges.size(); ++i) rest.body += w->data.tags.name(edges[i].tag) + "\n";
        w->preload.push_back(std::move(rest));
      }
    }
  } else {
    // Each resource is inserted with its first annotation of the paper
    // order; the rest of the trace is what the measured phase replays.
    wl::Trace trace = wl::buildPaperOrderTrace(trg, splitmix64(cfg.seed ^ 0x7ACEu));
    std::vector<bool> seen(trg.resourceSpan(), false);
    for (const auto& a : trace) {
      if (seen[a.res]) {
        w->replay.push_back(a);
        continue;
      }
      seen[a.res] = true;
      w->resources.push_back(a.res);
      w->preload.push_back(HttpOp{"PUT",
                                  "/resources/" + resourceName(*w, a.res) +
                                      "?tag=" + w->data.tags.name(a.tag),
                                  "uri://" + resourceName(*w, a.res), kPut, a.res, a.tag});
    }
  }
  const i64 t2 = nowNs();

  std::vector<std::string> argv{cfg.daemonPath};
  argv.insert(argv.end(), kDaemonFlags.begin(), kDaemonFlags.end());
  if (!w->daemon.start(argv, 30.0, err)) return nullptr;
  const i64 t3 = nowNs();
  // The preload runs over one connection: the gateway's single client
  // serialises the inserts anyway, so it is as fast as four, and the
  // daemon's peak memory does not then depend on how concurrent bursts
  // happened to interleave.
  if (!w->gen.connect(w->daemon.port(), 1, err)) return nullptr;
  usize bad = 0;
  bool ok = w->gen.runAll(w->preload, [&](const HttpOp&, const Exchange& ex) {
    if (ex.status != 200) ++bad;
  });
  if (!ok || bad != 0) {
    err = ok ? std::to_string(bad) + " preload requests failed" : w->gen.error();
    return nullptr;
  }
  if (!w->gen.connect(w->daemon.port(), kConns, err)) return nullptr;
  const i64 t4 = nowNs();
  w->times.synthMs = static_cast<double>(t1 - t0) / 1e6;
  w->times.traceMs = static_cast<double>(t2 - t1) / 1e6;
  w->times.bootMs = static_cast<double>(t3 - t2) / 1e6;
  w->times.preloadMs = static_cast<double>(t4 - t3) / 1e6;
  return w;
}

/// Daemon-side counters at one instant: the Prometheus scrape plus the
/// /stats engine block.
struct DaemonScrape {
  Scrape prom;
  double retries = 0, invalidations = 0, cacheHits = 0, cacheMisses = 0;
  double udpBytes = 0, udpSent = 0;
};

bool scrapeDaemon(HttpWorld& w, DaemonScrape& out, std::string& err) {
  u16 status = 0;
  std::string body;
  if (!w.gen.request(HttpOp{"GET", "/metrics", "", 0, 0, 0}, status, body) ||
      status != 200) {
    err = "GET /metrics failed";
    return false;
  }
  out.prom = Scrape::fromPrometheus(body);
  if (!w.gen.request(HttpOp{"GET", "/stats", "", 0, 0, 0}, status, body) ||
      status != 200) {
    err = "GET /stats failed";
    return false;
  }
  auto js = parseJson(body);
  const Json* engine = js ? js->get("engine") : nullptr;
  const Json* cache = engine ? engine->get("clientCache") : nullptr;
  const Json* udp = engine ? engine->get("udp") : nullptr;
  auto num = [](const Json* o, const char* k) {
    const Json* v = o ? o->get(k) : nullptr;
    return v && v->isNum() ? v->num : -1.0;
  };
  out.retries = num(engine, "retries");
  out.invalidations = num(cache, "invalidations");
  out.cacheHits = num(cache, "hits");
  out.cacheMisses = num(cache, "misses");
  out.udpBytes = num(udp, "bytesSent");
  out.udpSent = num(udp, "sent");
  if (out.retries < 0 || out.invalidations < 0 || out.udpBytes < 0) {
    err = "GET /stats lacks the engine counters";
    return false;
  }
  return true;
}

/// Reads an unsigned integer right after \p key in \p body, searching from
/// \p from; false when absent.
bool numberAfter(std::string_view body, std::string_view key, usize from, u64& out) {
  usize at = body.find(key, from);
  if (at == std::string_view::npos) return false;
  usize p = at + key.size();
  if (p >= body.size() || body[p] < '0' || body[p] > '9') return false;
  out = 0;
  while (p < body.size() && body[p] >= '0' && body[p] <= '9') {
    out = out * 10 + static_cast<u64>(body[p++] - '0');
  }
  return true;
}

bool checkCost(const Json& o) {
  const Json* c = o.get("cost");
  if (!c || !c->isObj()) return false;
  for (const char* k : {"lookups", "puts", "gets", "servedFromCache"}) {
    const Json* v = c->get(k);
    if (!v || !v->isNum()) return false;
  }
  return true;
}

bool checkEntries(const Json* a) {
  if (!a || !a->isArr()) return false;
  for (const auto& e : a->arr) {
    const Json* n = e.get("name");
    const Json* wt = e.get("weight");
    if (!e.isObj() || !n || !n->isStr() || !wt || !wt->isNum() || wt->num < 1) return false;
  }
  return true;
}

/// Full JSON-shape check of one response body; empty string when valid.
std::string checkShape(const HttpWorld& w, const HttpOp& op, std::string_view body,
                       u32 steps) {
  auto js = parseJson(body);
  if (!js || !js->isObj()) return "not a JSON object";
  const Json& o = *js;
  if (!checkCost(o)) return "missing cost block";
  if (op.kind == kSearch) {
    const Json* tag = o.get("tag");
    const Json* st = o.get("steps");
    const Json* ex = o.get("exhausted");
    const Json* hops = o.get("hops");
    if (!tag || !tag->isStr() || tag->str != w.data.tags.name(op.b)) return "wrong tag";
    if (!st || !st->isNum() || !ex || !ex->isBool() || !hops || !hops->isArr()) {
      return "missing walk fields";
    }
    if (hops->arr.empty() || hops->arr.size() > steps ||
        static_cast<usize>(st->num) != hops->arr.size()) {
      return "walk length " + std::to_string(hops->arr.size()) + " outside [1, " +
             std::to_string(steps) + "]";
    }
    for (const auto& h : hops->arr) {
      const Json* ht = h.get("tag");
      const Json* known = h.get("tagKnown");
      const Json* tt = h.get("tagsTruncated");
      const Json* rt = h.get("resourcesTruncated");
      if (!ht || !ht->isStr() || !known || !known->isBool() || !tt || !tt->isBool() ||
          !rt || !rt->isBool() || !checkEntries(h.get("relatedTags")) ||
          !checkEntries(h.get("resources"))) {
        return "malformed hop";
      }
    }
    if (hops->arr[0].get("tag")->str != tag->str) return "walk does not start at its tag";
    return {};
  }
  const Json* r = o.get("resource");
  if (!r || !r->isStr() || r->str != w.data.resources.name(op.a)) return "wrong resource";
  if (op.kind == kResolve) {
    const Json* uri = o.get("uri");
    if (!uri || !uri->isStr() || uri->str != "uri://" + r->str) return "wrong uri";
    return {};
  }
  for (const char* k : {"blocksWritten", "minReplicas", "retries"}) {
    const Json* v = o.get(k);
    if (!v || !v->isNum()) return std::string("missing ") + k;
  }
  if (o.get("minReplicas")->num < 1) return "write landed on no replica";
  return {};
}

/// Everything the sink learns from one phase.
struct PhaseTally {
  Windows win;  ///< set when the phase starts
  Samples latMs;  ///< from due time (open) or send time (closed)
  u64 inLimit = 0;  ///< ok responses within the latency limit
  Samples wireUs;  ///< send -> response, what the client saw on the wire
  Samples lagUs;   ///< generator lateness (open)
  u64 ops = 0, failed = 0;
  u64 lookups = 0, servedFromCache = 0;
  std::array<u64, kRouteCount> routeOps{}, routeLookups{};
  u64 searchHops = 0;
  std::array<u64, 2> sliceOps{};  ///< closed loop: [untraced, traced] slices
};

/// The workload's view of the run: tallies, response samples for the full
/// shape check, and what the spot check and the probes replay.
struct HttpRun {
  const BenchConfig& cfg;
  HttpWorld& w;
  RunResult& res;
  SpanLog& spans;
  double limitMs;
  u32 steps;
  std::array<PhaseTally, 2> phase;  ///< [open, closed]
  u64 warmFailed = 0;
  std::array<std::vector<std::pair<HttpOp, std::string>>, kRouteCount> samples;
  std::array<u64, kRouteCount> seenPerRoute{};
  std::vector<std::string> wireRequests;            ///< parser probe input
  std::vector<std::pair<u32, u32>> tagged;          ///< ok POSTs (r, t)
  std::deque<std::pair<i64, u32>> recentTags;       ///< (done ns, tag)
  u64 nextReq = 1;
  u64 badChecks = 0;

  HttpRun(const BenchConfig& c, HttpWorld& world, RunResult& r, SpanLog& s,
          double limit, u32 walkSteps)
      : cfg(c), w(world), res(r), spans(s), limitMs(limit), steps(walkSteps) {}

  /// Cheap per-response checks; the full shape check runs on samples.
  /// \p ph is the phase index (-1 = warm-up).
  void complete(int ph, i64 phaseStart, const HttpOp& op, const Exchange& ex) {
    bool ok = ex.status == 200;
    u64 lookups = 0, sfc = 0, hops = 0;
    if (ok) {
      std::string_view b = ex.body;
      usize cost = b.rfind("\"cost\":{");
      ok = cost != std::string_view::npos && numberAfter(b, "\"lookups\":", cost, lookups) &&
           numberAfter(b, "\"servedFromCache\":", cost, sfc);
      if (ok && op.kind == kSearch) {
        std::string head = "{\"tag\":\"" + w.data.tags.name(op.b) + "\",\"steps\":";
        ok = b.substr(0, head.size()) == head && numberAfter(b, head, 0, hops) &&
             hops >= 1 && hops <= steps;
      } else if (ok && op.kind == kResolve) {
        ok = b.find("\"uri\":\"uri://" + w.data.resources.name(op.a) + "\"") !=
             std::string_view::npos;
      } else if (ok) {
        std::string head = "{\"resource\":\"" + w.data.resources.name(op.a) + "\"";
        ok = b.substr(0, head.size()) == head;
      }
      if (!ok && ++badChecks <= 3) {
        res.fail(std::string("malformed ") + kRouteLabel[op.kind] + " response: " +
                 std::string(b.substr(0, 160)));
      }
      if (ok && op.kind == kPostTags) {
        recentTags.emplace_back(ex.doneNs, op.b);
        if (tagged.size() < 4096) tagged.emplace_back(op.a, op.b);
      }
      u64& seen = seenPerRoute[op.kind];
      if (ok && seen++ % 37 == 0 && samples[op.kind].size() < 200) {
        samples[op.kind].emplace_back(op, std::string(ex.body));
      }
      if (wireRequests.size() < 1000) wireRequests.push_back(LoadGen::serialize(op));
    }
    if (ph < 0) {
      warmFailed += ok ? 0 : 1;
      return;
    }
    PhaseTally& t = phase[ph];
    const i64 from = ph == 0 ? ex.dueNs : ex.sentNs;
    const double lat = static_cast<double>(ex.doneNs - from) / 1e6;
    ++t.ops;
    t.latMs.add(lat);
    t.wireUs.add(static_cast<double>(ex.doneNs - ex.sentNs) / 1e3);
    if (ph == 0) t.lagUs.add(static_cast<double>(ex.sentNs - ex.dueNs) / 1e3);
    if (!ok) ++t.failed;
    const bool good = ok && lat <= limitMs;
    t.inLimit += good ? 1 : 0;
    t.win.add(ex.doneNs, lat, good);
    t.lookups += lookups;
    t.servedFromCache += sfc;
    ++t.routeOps[op.kind];
    t.routeLookups[op.kind] += lookups;
    t.searchHops += hops;
    bool traced = cfg.trace && (ph == 0 || tracedSlice(phaseStart, ex.sentNs));
    if (ph == 1) ++t.sliceOps[traced ? 1 : 0];
    if (traced) {
      u64 req = nextReq++;
      u64 root = spans.add(1, "http.request", 0, req, ex.dueNs, ex.doneNs);
      spans.add(1, "loadgen.queue", root, req, ex.dueNs, ex.sentNs);
      spans.add(1, kRouteLabel[op.kind], root, req, ex.sentNs, ex.doneNs);
    }
  }
};

/// The request mixes. Both draw from a seeded Rng in a fixed order, so a
/// seed fixes the exact request sequence.
struct BrowseSource {
  const HttpWorld& w;
  Rng rng;
  usize next = 0;
  bool operator()(HttpOp& op, i64) {
    if (rng.uniform(100) < 80) {
      u32 tag = w.tagByRank[w.zipfRanks[next++ % w.zipfRanks.size()]];
      op = HttpOp{"GET",
                  "/search?tag=" + w.data.tags.name(tag) + "&steps=" +
                      std::to_string(kBrowseSteps),
                  "", kSearch, 0, tag};
    } else {
      u32 r = w.resources[rng.uniform(w.resources.size())];
      op = HttpOp{"GET", "/resolve/" + w.data.resources.name(r), "", kResolve, r, 0};
    }
    return true;
  }
};

struct TagSource {
  const HttpWorld& w;
  HttpRun& run;
  Rng rng;
  usize next = 0;
  bool operator()(HttpOp& op, i64 now) {
    if (rng.uniform(100) < 90 || run.recentTags.empty()) {
      const wl::Annotation& a = w.replay[next++ % w.replay.size()];
      op = HttpOp{"POST", "/resources/" + w.data.resources.name(a.res) + "/tags",
                  w.data.tags.name(a.tag) + "\n", kPostTags, a.res, a.tag};
      return true;
    }
    // A tag written within the last second (the newest one otherwise).
    auto& recent = run.recentTags;
    while (recent.size() > 1 && recent.front().first < now - kNsPerS) recent.pop_front();
    u32 tag = recent[rng.uniform(recent.size())].second;
    op = HttpOp{"GET", "/search?tag=" + w.data.tags.name(tag) + "&steps=1", "", kSearch, 0,
                tag};
    return true;
  }
};

/// tag_http spot check: a sample of tagged (r, t) pairs must show up in
/// GET /search?tag=t whenever the t̄ reply was not truncated (|Res(t)| within
/// the index-side top-N).
void spotCheck(HttpRun& run) {
  if (run.tagged.empty()) {
    run.res.fail("tag_http tagged nothing");
    return;
  }
  usize checks = std::min<usize>(64, run.tagged.size());
  usize verified = 0;
  for (usize i = 0; i < checks; ++i) {
    auto [r, t] = run.tagged[i * run.tagged.size() / checks];
    const std::string& tag = run.w.data.tags.name(t);
    const std::string& resName = run.w.data.resources.name(r);
    u16 status = 0;
    std::string body;
    HttpOp op{"GET", "/search?tag=" + tag + "&steps=1", "", kSearch, 0, t};
    if (!run.w.gen.request(op, status, body) || status != 200) {
      run.res.fail("spot check: search for " + tag + " failed");
      continue;
    }
    auto js = parseJson(body);
    const Json* hops = js ? js->get("hops") : nullptr;
    const Json* hop = hops && hops->isArr() && !hops->arr.empty() ? &hops->arr[0] : nullptr;
    const Json* known = hop ? hop->get("tagKnown") : nullptr;
    const Json* trunc = hop ? hop->get("resourcesTruncated") : nullptr;
    const Json* list = hop ? hop->get("resources") : nullptr;
    if (!known || !known->b || !trunc || !list || !list->isArr()) {
      run.res.fail("spot check: tag " + tag + " unknown after being written");
      continue;
    }
    if (trunc->b) continue;
    bool found = false;
    for (const auto& e : list->arr) {
      const Json* n = e.get("name");
      found = found || (n && n->str == resName);
    }
    if (!found) run.res.fail("spot check: " + resName + " missing from t̄ of " + tag);
    ++verified;
  }
  if (verified == 0) run.res.fail("spot check: every sampled t̄ reply was truncated");
}

RunResult runHttp(const BenchConfig& cfg, bool browse) {
  RunResult res;
  SpanLog spans;
  Samples setupS;
  std::unique_ptr<HttpWorld> w;
  while (cfg.moreSetups(setupS)) {
    if (w) {
      w->gen.close();
      if (!w->daemon.stop(10.0)) res.fail("daemon did not exit cleanly");
    }
    w.reset();
    std::string err;
    i64 t0 = nowNs();
    w = httpSetup(cfg, browse, err);
    if (!w) {
      res.fail("set-up failed: " + err);
      return res;
    }
    setupS.add(static_cast<double>(nowNs() - t0) / 1e9);
  }
  const double rate = browse ? kBrowseRate : kTagRate;
  HttpRun run(cfg, *w, res, spans, browse ? kBrowseLimitMs : kTagLimitMs,
              browse ? kBrowseSteps : 1);
  const u64 mixSeed = splitmix64(cfg.seed ^ 0x5EEDu);
  BrowseSource browseSrc{*w, Rng(mixSeed)};
  TagSource tagSrc{*w, run, Rng(mixSeed)};
  LoadGen::Source src = browse ? LoadGen::Source(std::ref(browseSrc))
                               : LoadGen::Source(std::ref(tagSrc));
  std::string err;
  auto abort = [&](const std::string& what) {
    res.fail(what);
    return res;
  };

  // Warm-up: same rate, not measured.
  if (!w->gen.runOpen(rate, static_cast<i64>(cfg.warmupSeconds() * 1e9), src,
                      [&](const HttpOp& op, const Exchange& ex) {
                        run.complete(-1, 0, op, ex);
                      })) {
    return abort("warm-up: " + w->gen.error());
  }
  spans.enabled = cfg.trace;
  DaemonScrape a, b, c;
  if (!scrapeDaemon(*w, a, err)) return abort(err);
  const i64 phaseNs = static_cast<i64>(0.5 * cfg.seconds * 1e9);
  const i64 openStart = nowNs();
  PhaseTally& open = run.phase[0];
  open.win = Windows(openStart);
  const pid_t daemonPid = w->daemon.pid();
  if (!w->gen.runOpen(
          rate, phaseNs, src,
          [&](const HttpOp& op, const Exchange& ex) { run.complete(0, openStart, op, ex); },
          [&](i64 now) { open.win.readCpu(now, daemonPid); })) {
    return abort("open loop: " + w->gen.error());
  }
  const i64 openEnd = nowNs();
  open.win.close(openStart + phaseNs, daemonPid);
  if (!scrapeDaemon(*w, b, err)) return abort(err);
  const i64 closedStart = nowNs();
  PhaseTally& closed = run.phase[1];
  closed.win = Windows(closedStart);
  if (!w->gen.runClosed(phaseNs, src, [&](const HttpOp& op, const Exchange& ex) {
        run.complete(1, closedStart, op, ex);
      })) {
    return abort("closed loop: " + w->gen.error());
  }
  closed.win.close(closedStart + phaseNs, daemonPid);
  const i64 closedEnd = nowNs();
  if (!scrapeDaemon(*w, c, err)) return abort(err);
  const double peakRssMb = procPeakRssMb(w->daemon.pid());
  if (cfg.trace) {
    spans.add(0, "phase.open", 0, 0, openStart, openEnd);
    spans.add(0, "phase.closed", 0, 0, closedStart, closedEnd);
  }
  spans.enabled = false;

  // Output checks beyond the per-response ones.
  for (usize route = 0; route < kRouteCount; ++route) {
    for (const auto& [op, body] : run.samples[route]) {
      std::string why = checkShape(*w, op, body, run.steps);
      if (!why.empty()) res.fail(std::string(kRouteLabel[route]) + " response: " + why);
    }
  }
  if (!browse) spotCheck(run);

  res.attempted = open.ops + closed.ops;
  res.failed = open.failed + closed.failed;
  if (run.warmFailed) res.fail(std::to_string(run.warmFailed) + " warm-up requests failed");
  if (res.failed) res.fail(std::to_string(res.failed) + " requests failed");
  if (open.ops == 0 || closed.ops == 0) res.fail("a measured phase completed nothing");

  // Costs per op are taken at the open loop's fixed offered load, so they
  // do not shift with how much the closed loop managed to push through.
  const double openOps = static_cast<double>(open.ops);
  res.e2e.set("setup_s", setupS.quantile(0.5), "s");
  res.e2e.set("throughput_ops_s", closed.win.rate(), "ops/s");
  res.e2e.set("latency_p50_ms", open.win.quantile(0.5), "ms");
  res.e2e.set("latency_p95_ms", open.win.quantile(0.95), "ms");
  res.e2e.set("lookups_per_op", ratio(static_cast<double>(open.lookups), openOps),
              "lookups/op");
  res.e2e.set("wire_bytes_per_op", ratio(b.udpBytes - a.udpBytes, openOps), "B/op");
  res.e2e.set("cpu_ms_per_op", open.win.cpuMsPerOp(), "ms/op");
  res.e2e.set("peak_rss_mb", peakRssMb, "MB");

  if (cfg.trace) {
    // Per-layer metrics at the fixed offered load of the open loop.
    MetricSet& L = res.layers;
    Scrape d = Scrape::delta(b.prom, a.prom);
    layersFromScrape(d, static_cast<double>(openEnd - openStart), L);
    obs::HistogramSnapshot route;
    for (const char* r : {"search", "resolve", "post_tags"}) {
      route.merge(d.hist(std::string("dharma_gateway_route_latency_us{route=\"") + r + "\""));
    }
    obs::HistogramSnapshot clientOps = d.hist("dharma_client_op_latency_us{op=\"search_step\"");
    clientOps.merge(d.hist("dharma_client_op_latency_us{op=\"resolve\""));
    clientOps.merge(d.hist("dharma_client_op_latency_us{op=\"tag\""));
    const double requests = static_cast<double>(route.count());
    L.set("gateway.route_us.p50", route.quantile(0.5), "us");
    L.set("gateway.outside_route_us.mean", open.wireUs.mean() - histMean(route), "us");
    L.set("gateway.handoff_us.mean",
          histMean(route) - ratio(static_cast<double>(clientOps.sum), requests), "us");
    L.set("gateway.overload_rejects",
          c.prom.scalar("dharma_gateway_overload_rejected_total") -
              a.prom.scalar("dharma_gateway_overload_rejected_total"),
          "count");
    auto opHist = [&](const char* op) {
      return d.hist(std::string("dharma_client_op_latency_us{op=\"") + op + "\"");
    };
    L.set("core.op_us.search_step.p50", opHist("search_step").quantile(0.5), "us");
    L.set("core.op_us.resolve.p50", opHist("resolve").quantile(0.5), "us");
    L.set("core.op_us.tag.p50", opHist("tag").quantile(0.5), "us");
    L.set("core.op_us.tag.p99", opHist("tag").quantile(0.99), "us");
    L.set("core.retries_per_op", ratio(b.retries - a.retries, openOps), "1/op");
    L.set("core.lookups_per_op.search_step",
          ratio(static_cast<double>(open.routeLookups[kSearch]),
                static_cast<double>(open.searchHops)),
          "lookups/op");
    L.set("core.lookups_per_op.resolve",
          ratio(static_cast<double>(open.routeLookups[kResolve]),
                static_cast<double>(open.routeOps[kResolve])),
          "lookups/op");
    L.set("core.lookups_per_op.tag",
          ratio(static_cast<double>(open.routeLookups[kPostTags]),
                static_cast<double>(open.routeOps[kPostTags])),
          "lookups/op");
    double hits = b.cacheHits - a.cacheHits, misses = b.cacheMisses - a.cacheMisses;
    L.set("cache.client_hit_ratio", ratio(hits, hits + misses), "ratio");
    L.set("cache.served_from_cache_per_op",
          ratio(static_cast<double>(open.servedFromCache), openOps), "1/op");
    L.set("cache.invalidations_per_op", ratio(b.invalidations - a.invalidations, openOps),
          "1/op");
    // The daemon mirrors node 0's counters only; node 0 carries every
    // gateway op, so its RPCs are the ops' RPCs (plus its maintenance).
    auto node0 = [&](const char* id) { return d.scalar(id); };
    L.set("dht.rpcs_per_op", ratio(node0("dharma_node_rpcs_sent_total"), openOps), "rpcs/op");
    L.set("dht.timeouts_per_kop", ratio(node0("dharma_node_timeouts_total") * 1e3, openOps),
          "1/kop");
    L.set("dht.stores_dedup_ratio",
          ratio(node0("dharma_node_stores_deduplicated_total"),
                static_cast<double>(
                    d.hist("dharma_node_rpc_service_us{rpc=\"store\"").count())),
          "ratio");
    L.set("net.datagrams_per_op", ratio(b.udpSent - a.udpSent, openOps), "datagrams/op");
    L.set("loadgen.lag_us.p99", open.lagUs.quantile(0.99), "us");
    L.set("loadgen.latency_p99_ms", open.latMs.quantile(0.99), "ms");
    L.set("loadgen.late_ratio",
          ratio(static_cast<double>(open.ops - open.inLimit), openOps), "fraction");
    L.set("trace.overhead_ratio",
          ratio(static_cast<double>(closed.sliceOps[0]),
                static_cast<double>(closed.sliceOps[1])),
          "ratio");
    w->times.report(L);
    spans.enabled = true;
    w->times.addSpans(spans);
    spans.enabled = false;

    // Probe phase: the gateway's wire layer on the requests and responses
    // this run produced, then the lower layers on an in-process rig of the
    // daemon's shape holding a slice of the same folksonomy.
    std::vector<std::string> bodies;
    for (const auto& route : run.samples) {
      for (const auto& [op, body] : route) bodies.push_back(body);
    }
    usize sink = 0;
    gateway::HttpParser parser;
    L.set("gateway.parse_ns_per_req", timePerCallNs(7, 2000, [&](usize i) {
            parser.feed(run.wireRequests[i % run.wireRequests.size()]);
            if (parser.state() == gateway::ParseState::kComplete) {
              sink += parser.take().target.size();
            }
          }), "ns");
    L.set("gateway.serialize_ns_per_resp", timePerCallNs(7, 2000, [&](usize i) {
            gateway::HttpResponse r;
            r.body = bodies[i % bodies.size()];
            sink += gateway::serializeResponse(r).size();
          }), "ns");
    if (sink == 0) std::cerr << "# probe sink empty\n";
    ProbeInputs in;
    for (usize i = 0; i < w->resources.size() && in.resources.size() < 32; ++i) {
      u32 r = w->resources[i];
      in.resources.push_back(w->data.resources.name(r));
      std::vector<std::string> tags;
      for (const auto& e : w->data.trg.tagsOf(r)) tags.push_back(w->data.tags.name(e.tag));
      in.tags.push_back(std::move(tags));
    }
    u32 hot = 0;
    for (u32 t = 0; t < w->data.trg.tagSpan(); ++t) {
      if (w->data.trg.tagDegree(t) > w->data.trg.tagDegree(hot)) hot = t;
    }
    for (u32 r : w->data.trg.resourcesOf(hot)) {
      in.hotEntries.push_back({w->data.resources.name(r), w->data.trg.weight(r, hot)});
    }
    {
      EngineRig rig(8, 4);
      if (!preloadRig(rig, in)) res.fail("probe rig preload failed");
      probeRig(rig, in, L);
    }
    probeCommon(in, L);
    if (!cfg.traceOut.empty() && !spans.writeChrome(cfg.traceOut)) {
      res.fail("cannot write " + cfg.traceOut);
    }
  }

  w->gen.close();
  if (!w->daemon.stop(10.0)) res.fail("daemon did not exit cleanly");
  return res;
}

}  // namespace

RunResult runBrowseHttp(const BenchConfig& cfg) { return runHttp(cfg, true); }
RunResult runTagHttp(const BenchConfig& cfg) { return runHttp(cfg, false); }

std::string daemonFlags() {
  std::string s;
  for (const auto& f : kDaemonFlags) s += (s.empty() ? "" : " ") + f;
  return s;
}

}  // namespace bench
