/// Tests for the synthetic generator, traces, and Section V-B replay
/// (workload/*).

#include <gtest/gtest.h>

#include <sstream>

#include "folksonomy/derive.hpp"
#include "workload/dataset.hpp"
#include "workload/driver.hpp"

namespace dharma::wl {
namespace {

SynthConfig tinyConfig(u64 seed = 1) {
  SynthConfig cfg;
  cfg.numTags = 200;
  cfg.numResources = 1000;
  cfg.targetAnnotations = 8000;
  cfg.maxResourceDegree = 40;
  cfg.seed = seed;
  return cfg;
}

TEST(Synth, Deterministic) {
  SynthStats a, b;
  folk::Trg ga = generate(tinyConfig(), &a);
  folk::Trg gb = generate(tinyConfig(), &b);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.annotations, b.annotations);
  EXPECT_EQ(ga.numAnnotations(), gb.numAnnotations());
  for (u32 r = 0; r < ga.resourceSpan(); ++r) {
    ASSERT_EQ(ga.resourceDegree(r), gb.resourceDegree(r));
  }
}

TEST(Synth, SeedChangesOutput) {
  SynthStats a, b;
  generate(tinyConfig(1), &a);
  generate(tinyConfig(2), &b);
  EXPECT_NE(a.edges, b.edges);
}

TEST(Synth, HitsAnnotationBudget) {
  SynthStats s;
  folk::Trg g = generate(tinyConfig(), &s);
  EXPECT_EQ(s.annotations, tinyConfig().targetAnnotations);
  EXPECT_EQ(g.numAnnotations(), tinyConfig().targetAnnotations);
  EXPECT_LE(s.edges, s.annotations);
}

TEST(Synth, DegreeOneSharesInCalibratedRange) {
  // Use the shipping Last.fm-proportioned configuration: the degree-1
  // shares are calibration targets of that config (Table II / Section V-A),
  // not invariants of arbitrary parameter combinations.
  SynthConfig cfg = SynthConfig::lastfmScaled(0.02, /*seed=*/3);
  folk::Trg g = generate(cfg, nullptr);
  u64 res1 = 0, usedRes = 0, tag1 = 0, usedTags = 0;
  for (u32 r = 0; r < g.resourceSpan(); ++r) {
    u32 d = g.resourceDegree(r);
    if (d == 0) continue;
    ++usedRes;
    res1 += d == 1;
  }
  for (u32 t = 0; t < g.tagSpan(); ++t) {
    u32 d = g.tagDegree(t);
    if (d == 0) continue;
    ++usedTags;
    tag1 += d == 1;
  }
  // Paper: ~40% of resources have 1 tag; ~55% of tags mark 1 resource.
  double fr = static_cast<double>(res1) / static_cast<double>(usedRes);
  double ft = static_cast<double>(tag1) / static_cast<double>(usedTags);
  EXPECT_GT(fr, 0.25);
  EXPECT_LT(fr, 0.60);
  EXPECT_GT(ft, 0.35);
  EXPECT_LT(ft, 0.75);
}

TEST(Synth, HeavyTailExists) {
  folk::Trg g = generate(tinyConfig(5), nullptr);
  u32 maxTagDeg = 0;
  for (u32 t = 0; t < g.tagSpan(); ++t) {
    maxTagDeg = std::max(maxTagDeg, g.tagDegree(t));
  }
  // The most popular tag should dominate the mean by an order of magnitude.
  EXPECT_GT(maxTagDeg, 50u);
}

TEST(Synth, FrozenOutput) {
  folk::Trg g = generate(tinyConfig(), nullptr);
  EXPECT_TRUE(g.frozen());
}

TEST(Synth, LastfmScaledDimensions) {
  SynthConfig cfg = SynthConfig::lastfmScaled(0.01);
  EXPECT_NEAR(cfg.numTags, 2851, 2);
  EXPECT_NEAR(cfg.numResources, 14136, 2);
  EXPECT_NEAR(static_cast<double>(cfg.targetAnnotations), 110000, 2);
}

TEST(Trace, PaperOrderCoversExactly) {
  folk::Trg g = generate(tinyConfig(), nullptr);
  Trace tr = buildPaperOrderTrace(g, 7);
  EXPECT_EQ(tr.size(), g.numAnnotations());
  EXPECT_TRUE(traceMatchesTrg(tr, g));
}

TEST(Trace, UniformCoversExactly) {
  folk::Trg g = generate(tinyConfig(), nullptr);
  Trace tr = buildUniformTrace(g, 7);
  EXPECT_EQ(tr.size(), g.numAnnotations());
  EXPECT_TRUE(traceMatchesTrg(tr, g));
}

TEST(Trace, Deterministic) {
  folk::Trg g = generate(tinyConfig(), nullptr);
  Trace a = buildPaperOrderTrace(g, 7);
  Trace b = buildPaperOrderTrace(g, 7);
  EXPECT_EQ(a, b);
  Trace c = buildPaperOrderTrace(g, 8);
  EXPECT_NE(a, c);
}

TEST(Trace, MatcherRejectsCorruptedTrace) {
  folk::Trg g = generate(tinyConfig(), nullptr);
  Trace tr = buildPaperOrderTrace(g, 7);
  tr.pop_back();
  EXPECT_FALSE(traceMatchesTrg(tr, g));
}

TEST(Replay, ExactReplayEqualsDerivedFg) {
  // Replaying the full trace with the EXACT policy must land on the
  // theoretic FG of the TRG (whatever the replay order).
  folk::Trg g = generate(tinyConfig(9), nullptr);
  Trace tr = buildPaperOrderTrace(g, 11);
  folk::FolksonomyModel m = replayApproximated(tr, folk::exactMode(), 1);
  folk::DynamicFg derived = folk::deriveExactFgDynamic(g);
  EXPECT_EQ(m.fg().arcCount(), derived.arcCount());
  EXPECT_EQ(m.fg().totalWeight(), derived.totalWeight());
}

TEST(Replay, TrgReconstructedExactly) {
  folk::Trg g = generate(tinyConfig(10), nullptr);
  Trace tr = buildPaperOrderTrace(g, 12);
  folk::FolksonomyModel m = replayApproximated(tr, folk::approxMode(1), 2);
  // "only the FG is affected by the approximation, while the TRG remains
  // the same" (Section IV-B).
  EXPECT_EQ(m.trg().numEdges(), g.numEdges());
  EXPECT_EQ(m.trg().numAnnotations(), g.numAnnotations());
  for (u32 r = 0; r < g.resourceSpan(); ++r) {
    for (const auto& e : g.tagsOf(r)) {
      ASSERT_EQ(m.trg().weight(r, e.tag), e.weight);
    }
  }
}

TEST(Replay, ApproxSubsetOfExact) {
  folk::Trg g = generate(tinyConfig(13), nullptr);
  Trace tr = buildPaperOrderTrace(g, 14);
  folk::FolksonomyModel m = replayApproximated(tr, folk::approxMode(1), 3);
  folk::DynamicFg derived = folk::deriveExactFgDynamic(g);
  EXPECT_LE(m.fg().arcCount(), derived.arcCount());
  bool subset = true;
  m.fg().forEachArc([&](u32 a, u32 b, u64 w) {
    if (derived.weight(a, b) < w) subset = false;
  });
  EXPECT_TRUE(subset);
}

TEST(Replay, RecallGrowsWithK) {
  folk::Trg g = generate(tinyConfig(15), nullptr);
  Trace tr = buildPaperOrderTrace(g, 16);
  u64 arcsK1 = replayApproximated(tr, folk::approxMode(1), 4).fg().arcCount();
  u64 arcsK5 = replayApproximated(tr, folk::approxMode(5), 4).fg().arcCount();
  u64 arcsK50 = replayApproximated(tr, folk::approxMode(50), 4).fg().arcCount();
  EXPECT_LE(arcsK1, arcsK5);
  EXPECT_LE(arcsK5, arcsK50);
  EXPECT_LT(arcsK1, arcsK50);  // strictly more at much larger k
}

TEST(Dataset, SyntheticHasNames) {
  Dataset d = Dataset::synthetic(tinyConfig());
  EXPECT_EQ(d.tags.size(), d.trg.tagSpan());
  EXPECT_EQ(d.resources.size(), d.trg.resourceSpan());
  EXPECT_EQ(d.tags.name(0), "tag-0");
  EXPECT_EQ(d.resources.name(1), "res-1");
}

TEST(Dataset, TsvRoundtrip) {
  Dataset d = Dataset::synthetic(tinyConfig());
  std::stringstream ss;
  d.saveTsv(ss);
  Dataset back = Dataset::loadTsv(ss);
  EXPECT_EQ(back.trg.numEdges(), d.trg.numEdges());
  EXPECT_EQ(back.trg.numAnnotations(), d.trg.numAnnotations());
  EXPECT_TRUE(back.trg.frozen());
  // Spot-check a handful of weights through the name mapping.
  usize checked = 0;
  for (u32 r = 0; r < d.trg.resourceSpan() && checked < 50; ++r) {
    for (const auto& e : d.trg.tagsOf(r)) {
      auto rid = back.resources.find(d.resources.name(r));
      auto tid = back.tags.find(d.tags.name(e.tag));
      ASSERT_TRUE(rid.has_value());
      ASSERT_TRUE(tid.has_value());
      EXPECT_EQ(back.trg.weight(*rid, *tid), e.weight);
      ++checked;
    }
  }
}

TEST(Dataset, LoadTsvRejectsGarbage) {
  std::stringstream ss("not-a-valid-line-without-tabs\n");
  EXPECT_THROW(Dataset::loadTsv(ss), std::runtime_error);
}

TEST(Interner, Basics) {
  folk::Interner in;
  u32 a = in.intern("rock");
  u32 b = in.intern("pop");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("rock"), a);
  EXPECT_EQ(in.name(a), "rock");
  EXPECT_EQ(in.size(), 2u);
  EXPECT_TRUE(in.find("pop").has_value());
  EXPECT_FALSE(in.find("jazz").has_value());
}

// ---------------------------------------------------------------------------
// Bulk-load driver (workload/driver.hpp): dataset replay over a live overlay
// ---------------------------------------------------------------------------

namespace {

Dataset microDataset() {
  SynthConfig cfg;
  cfg.numTags = 12;
  cfg.numResources = 20;
  cfg.targetAnnotations = 90;
  cfg.maxResourceDegree = 8;
  cfg.seed = 3;
  return Dataset::synthetic(cfg);
}

dht::DhtNetworkConfig microOverlay(u64 seed) {
  dht::DhtNetworkConfig cfg;
  cfg.nodes = 16;
  cfg.seed = seed;
  cfg.latency = "constant";
  cfg.constantLatencyUs = 2000;
  return cfg;
}

}  // namespace

TEST(BulkDriver, BatchedLoadIsCheaperAndEquivalent) {
  Dataset data = microDataset();
  Trace trace = buildPaperOrderTrace(data.trg, 5);

  // Naive protocol on both paths: rng-free, so the batched and sequential
  // replays must produce bit-identical blocks.
  core::DharmaConfig naive;
  naive.approximateA = false;
  naive.approximateB = false;

  dht::DhtNetwork netSeq(microOverlay(42));
  netSeq.bootstrap();
  core::DharmaClient seq(netSeq, 0, naive, 7);
  BulkLoadOptions seqOpt;
  seqOpt.batched = false;
  BulkLoadStats seqStats = loadTrace(seq, data, trace, seqOpt);

  dht::DhtNetwork netBat(microOverlay(42));
  netBat.bootstrap();
  core::DharmaClient bat(netBat, 0, naive, 7);
  BulkLoadOptions batOpt;
  batOpt.windowSize = 16;
  BulkLoadStats batStats = loadTrace(bat, data, trace, batOpt);

  // Zero silent failures on a healthy overlay.
  EXPECT_EQ(seqStats.failures, 0u);
  EXPECT_EQ(batStats.failures, 0u);
  EXPECT_EQ(seqStats.annotations, trace.size());
  EXPECT_EQ(batStats.annotations, trace.size());
  EXPECT_GE(batStats.minReplicas, 1u);

  // The whole point: the shared lookup plan loads the same data for
  // measurably fewer lookups per annotation.
  EXPECT_LT(batStats.cost.lookups, seqStats.cost.lookups);
  EXPECT_LT(batStats.flushes, seqStats.flushes);

  // Equivalence: every resource's r̄ block matches the TRG on both paths.
  dht::GetOptions all{0, 1u << 20};
  for (u32 r = 0; r < data.trg.resourceSpan(); ++r) {
    auto key = core::blockKey(data.resources.name(r),
                              core::BlockType::kResourceTags);
    auto vs = netSeq.getBlocking(1, key, all);
    auto vb = netBat.getBlocking(1, key, all);
    ASSERT_EQ(vs.has_value(), vb.has_value()) << data.resources.name(r);
    if (!vs) continue;
    EXPECT_EQ(vs->entries, vb->entries) << data.resources.name(r);
    for (const auto& e : data.trg.tagsOf(r)) {
      EXPECT_EQ(vs->weightOf(data.tags.name(e.tag)), e.weight)
          << data.resources.name(r) << "/" << data.tags.name(e.tag);
    }
  }
}

TEST(BulkDriver, FailuresAreClassifiedNotDropped) {
  Dataset data = microDataset();
  Trace trace = buildPaperOrderTrace(data.trg, 5);
  dht::DhtNetwork net(microOverlay(43));
  net.bootstrap();
  // The driver's client rides a crashed node: every flush must fail with
  // kNodeOffline — and be counted, not silently absorbed.
  net.setOnline(2, false);
  core::DharmaClient client(net, 2, core::DharmaConfig{}, 7);
  BulkLoadOptions opt;
  BulkLoadStats st = loadTrace(client, data, trace, opt);
  EXPECT_EQ(st.failures, st.flushes);
  EXPECT_EQ(st.byError[static_cast<usize>(core::OpError::kNodeOffline)],
            st.failures);
  EXPECT_EQ(st.cost.lookups, 0u);
}

/// The Section V-B replay's traffic on a fixed seed, pinned as constants:
/// skeleton first, then every annotation one by one through the
/// approximated protocol on a lognormal-latency overlay. Changes to the
/// wire protocol, to lookup routing or to which datagrams a node accepts
/// show up here; a pure speed-up leaves every count as it is.
TEST(BulkDriver, SeededReplayTrafficPinned) {
  Dataset data = microDataset();
  Trace trace = buildPaperOrderTrace(data.trg, 5);
  dht::DhtNetworkConfig ncfg;
  ncfg.nodes = 16;
  ncfg.seed = 42;
  dht::DhtNetwork net(ncfg);
  net.bootstrap();
  core::DharmaClient client(net, 0, core::DharmaConfig{}, 9);
  BulkLoadOptions skeleton;
  skeleton.batched = false;
  BulkLoadStats st = loadTrace(client, data, {}, skeleton);
  BulkLoadOptions replay;
  replay.batched = false;
  replay.insertFirst = false;
  BulkLoadStats rs = loadTrace(client, data, trace, replay);

  EXPECT_EQ(st.failures + rs.failures, 0u);
  EXPECT_EQ(rs.annotations, trace.size());
  EXPECT_EQ(st.cost.lookups + rs.cost.lookups, 469u);
  EXPECT_EQ(net.network().stats().bytesSent, 4193069u);
  EXPECT_EQ(net.sim().executed(), 17490u);
}

}  // namespace
}  // namespace dharma::wl
