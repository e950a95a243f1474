/// Unit tests for token-append block storage and index-side filtering.

#include "dht/storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

namespace dharma::dht {
namespace {

NodeId key(const std::string& s) { return NodeId::fromString(s); }

StoreToken inc(const std::string& entry, u64 delta = 1) {
  return StoreToken{TokenKind::kIncrement, entry, delta, {}};
}

/// Timestamp-less apply for tests that don't exercise expiry.
bool apply(BlockStore& s, const NodeId& k, const StoreToken& t) {
  return s.apply(k, t, 0);
}

TEST(Storage, IncrementCreatesAndAccumulates) {
  BlockStore s;
  EXPECT_TRUE(apply(s, key("k"), inc("a")));
  EXPECT_TRUE(apply(s, key("k"), inc("a", 2)));
  auto v = s.query(key("k"), {});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->weightOf("a"), 3u);
  EXPECT_EQ(v->totalEntries, 1u);
}

TEST(Storage, MissingKeyQueryIsNullopt) {
  BlockStore s;
  EXPECT_FALSE(s.query(key("nope"), {}).has_value());
  EXPECT_FALSE(s.has(key("nope")));
}

TEST(Storage, EmptyEntryRejected) {
  BlockStore s;
  EXPECT_FALSE(apply(s, key("k"), inc("")));
  EXPECT_FALSE(apply(s, key("k"), inc("a", 0)));
}

TEST(Storage, PayloadToken) {
  BlockStore s;
  StoreToken t;
  t.kind = TokenKind::kSetPayload;
  t.payload = "http://example/uri";
  EXPECT_TRUE(apply(s, key("r"), t));
  auto v = s.query(key("r"), {});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->payload, "http://example/uri");
}

TEST(Storage, TouchCreatesEmptyBlock) {
  BlockStore s;
  StoreToken t;
  t.kind = TokenKind::kTouch;
  EXPECT_TRUE(apply(s, key("t"), t));
  auto v = s.query(key("t"), {});
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->entries.empty());
  EXPECT_FALSE(v->truncated);
}

TEST(Storage, ConditionalIncrementNewEntryGetsOne) {
  BlockStore s;
  StoreToken t;
  t.kind = TokenKind::kIncrementIfNewB;
  t.entry = "tau";
  t.delta = 50;  // the exact-model increment u(τ,r)
  EXPECT_TRUE(apply(s, key("k"), t));
  EXPECT_EQ(s.query(key("k"), {})->weightOf("tau"), 1u);  // Approximation B
}

TEST(Storage, ConditionalIncrementExistingGetsDelta) {
  BlockStore s;
  apply(s, key("k"), inc("tau", 3));
  StoreToken t;
  t.kind = TokenKind::kIncrementIfNewB;
  t.entry = "tau";
  t.delta = 50;
  apply(s, key("k"), t);
  EXPECT_EQ(s.query(key("k"), {})->weightOf("tau"), 53u);
}

StoreToken icb(const std::string& entry, u64 delta) {
  return StoreToken{TokenKind::kIncrementIfNewB, entry, delta, {}};
}

TEST(Storage, ConditionalIncrementZeroDeltaOnlyCreates) {
  BlockStore s;
  // Absent: the create path ignores delta, so 0 is fine.
  EXPECT_TRUE(s.applyAll(key("k"), {icb("x", 0)}, 0));
  EXPECT_EQ(s.query(key("k"), {})->weightOf("x"), 1u);
  // Present in the block: the add path needs a non-zero delta.
  EXPECT_FALSE(s.applyAll(key("k"), {icb("x", 0)}, 0));
  // Created by an earlier token of the same batch: present too.
  const u64 before = s.tokensApplied();
  EXPECT_FALSE(s.applyAll(key("k"), {inc("y"), icb("y", 0)}, 5));
  EXPECT_FALSE(s.applyAll(key("k"), {icb("z", 0), icb("z", 0)}, 5));
  const StoreToken max4{TokenKind::kMergeMax, "w", 4, {}};
  EXPECT_FALSE(s.applyAll(key("k"), {max4, icb("w", 0)}, 5));
  EXPECT_EQ(s.query(key("k"), {})->weightOf("y"), 0u);
  EXPECT_EQ(s.query(key("k"), {})->weightOf("z"), 0u);
  EXPECT_EQ(s.tokensApplied(), before);
  EXPECT_EQ(s.lastTouched(key("k")), 0u);
  // A token that names another entry, or carries no entry, creates nothing.
  EXPECT_TRUE(s.applyAll(key("k"), {inc("v"), icb("u", 0)}, 5));
  EXPECT_EQ(s.query(key("k"), {})->weightOf("u"), 1u);
}

/// The copy-and-rollback store that validate-then-apply replaced, kept as
/// the oracle: apply() mutates as it goes, applyAll() copies the block
/// first and restores it (and the counter) when any token is rejected, and
/// query() copies and fully sorts the block before trimming.
class RollbackOracle {
 public:
  bool apply(const NodeId& key, const StoreToken& token, net::SimTime now) {
    switch (token.kind) {
      case TokenKind::kIncrement: {
        if (token.entry.empty() || token.delta == 0) return false;
        Block& b = blocks_[key];
        b.entries[token.entry] += token.delta;
        b.lastTouchedUs = std::max(b.lastTouchedUs, now);
        tokensApplied_ += token.delta;
        return true;
      }
      case TokenKind::kSetPayload: {
        Block& b = blocks_[key];
        b.payload = token.payload;
        b.lastTouchedUs = std::max(b.lastTouchedUs, now);
        ++tokensApplied_;
        return true;
      }
      case TokenKind::kTouch: {
        Block& b = blocks_[key];
        b.lastTouchedUs = std::max(b.lastTouchedUs, now);
        ++tokensApplied_;
        return true;
      }
      case TokenKind::kIncrementIfNewB: {
        if (token.entry.empty()) return false;
        Block& b = blocks_[key];
        auto [it, inserted] = b.entries.emplace(token.entry, 1);
        if (!inserted) {
          if (token.delta == 0) return false;
          it->second += token.delta;
        }
        b.lastTouchedUs = std::max(b.lastTouchedUs, now);
        tokensApplied_ += inserted ? 1 : token.delta;
        return true;
      }
      case TokenKind::kMergeMax: {
        if (token.entry.empty() || token.delta == 0) return false;
        Block& b = blocks_[key];
        u64& w = b.entries[token.entry];
        w = std::max(w, token.delta);
        b.lastTouchedUs = std::max(b.lastTouchedUs, now);
        ++tokensApplied_;
        return true;
      }
    }
    return false;
  }

  bool applyAll(const NodeId& key, const std::vector<StoreToken>& tokens,
                net::SimTime now) {
    if (tokens.empty()) return false;
    auto it = blocks_.find(key);
    const bool existed = it != blocks_.end();
    Block backup = existed ? it->second : Block{};
    const u64 counterBackup = tokensApplied_;
    bool ok = true;
    for (const auto& t : tokens) ok = apply(key, t, now) && ok;
    if (!ok) {
      tokensApplied_ = counterBackup;
      if (existed) {
        blocks_[key] = std::move(backup);
      } else {
        blocks_.erase(key);
      }
    }
    return ok;
  }

  std::optional<BlockView> query(const NodeId& key,
                                 const GetOptions& opt) const {
    auto it = blocks_.find(key);
    if (it == blocks_.end()) return std::nullopt;
    BlockView v;
    v.payload = it->second.payload;
    v.totalEntries = it->second.entries.size();
    for (const auto& [name, w] : it->second.entries) {
      v.entries.push_back({name, w});
    }
    std::sort(v.entries.begin(), v.entries.end(),
              [](const BlockEntry& a, const BlockEntry& b) {
                return a.weight != b.weight ? a.weight > b.weight
                                            : a.name < b.name;
              });
    v.trim(opt);
    return v;
  }

  bool has(const NodeId& key) const { return blocks_.count(key) > 0; }
  bool hasEntry(const NodeId& key, const std::string& entry) const {
    auto it = blocks_.find(key);
    return it != blocks_.end() && it->second.entries.count(entry) > 0;
  }
  net::SimTime lastTouched(const NodeId& key) const {
    auto it = blocks_.find(key);
    return it == blocks_.end() ? 0 : it->second.lastTouchedUs;
  }
  u64 tokensApplied() const { return tokensApplied_; }

 private:
  struct Block {
    std::map<std::string, u64> entries;
    std::string payload;
    net::SimTime lastTouchedUs = 0;
  };
  std::map<NodeId, Block> blocks_;
  u64 tokensApplied_ = 0;
};

void expectSameView(const std::optional<BlockView>& got,
                    const std::optional<BlockView>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->entries, want->entries);
  EXPECT_EQ(got->payload, want->payload);
  EXPECT_EQ(got->truncated, want->truncated);
  EXPECT_EQ(got->totalEntries, want->totalEntries);
}

TEST(Storage, ApplyAllMatchesRollbackOracle) {
  std::mt19937_64 rng(20100419);
  auto pick = [&](u64 n) { return rng() % n; };
  const std::vector<std::string> names = {"", "a", "b", "c", "d"};
  std::vector<NodeId> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(key("k" + std::to_string(i)));

  BlockStore store;
  RollbackOracle oracle;
  // Coverage of the zero-delta kIncrementIfNewB cases: entry in the block,
  // created earlier in the batch, absent.
  usize zeroInBlock = 0, zeroEarlier = 0, zeroAbsent = 0;
  usize accepted = 0, rejected = 0, freshKeys = 0;
  for (int round = 0; round < 12000; ++round) {
    // One batch in 3 targets a key never seen before.
    NodeId k = pick(3) == 0 ? key("fresh-" + std::to_string(freshKeys++))
                            : keys[pick(keys.size())];
    std::vector<StoreToken> batch(1 + pick(5));
    for (usize i = 0; i < batch.size(); ++i) {
      StoreToken& t = batch[i];
      t.kind = static_cast<TokenKind>(pick(5));
      // One token in 4 reuses an earlier token's entry.
      t.entry = i > 0 && pick(4) == 0 ? batch[pick(i)].entry
                                      : names[pick(names.size())];
      t.delta = pick(5) == 0 ? 0 : 1 + pick(4);
      if (t.kind == TokenKind::kSetPayload) {
        t.payload = "uri-" + std::to_string(pick(3));
      }
      if (t.kind == TokenKind::kIncrementIfNewB && t.delta == 0 &&
          !t.entry.empty()) {
        const bool earlier = std::any_of(
            batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(i),
            [&](const StoreToken& e) {
              return e.entry == t.entry && e.kind != TokenKind::kSetPayload &&
                     e.kind != TokenKind::kTouch;
            });
        if (oracle.hasEntry(k, t.entry)) {
          ++zeroInBlock;
        } else if (earlier) {
          ++zeroEarlier;
        } else {
          ++zeroAbsent;
        }
      }
    }
    const net::SimTime now = pick(1'000'000);
    const bool want = oracle.applyAll(k, batch, now);
    ASSERT_EQ(store.applyAll(k, batch, now), want) << "round " << round;
    ++(want ? accepted : rejected);
    ASSERT_EQ(store.tokensApplied(), oracle.tokensApplied())
        << "round " << round;
    std::vector<NodeId> check = keys;
    check.push_back(k);
    for (const NodeId& c : check) {
      ASSERT_EQ(store.has(c), oracle.has(c)) << "round " << round;
      ASSERT_EQ(store.lastTouched(c), oracle.lastTouched(c))
          << "round " << round;
      expectSameView(store.query(c, {}), oracle.query(c, {}));
    }
    if (::testing::Test::HasFailure()) FAIL() << "round " << round;
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(zeroInBlock, 50u);
  EXPECT_GT(zeroEarlier, 50u);
  EXPECT_GT(zeroAbsent, 50u);
}

TEST(Storage, QueryMatchesFullSortThenTrim) {
  std::mt19937_64 rng(7);
  auto pick = [&](u64 n) { return rng() % n; };
  for (int round = 0; round < 500; ++round) {
    BlockStore store;
    RollbackOracle oracle;
    const NodeId k = key("q");
    std::vector<StoreToken> batch;
    const usize n = pick(80);
    for (usize i = 0; i < n; ++i) {
      // Few distinct weights, so most comparisons are ties broken by name.
      const std::string name =
          "e" + std::string(pick(6), 'x') + std::to_string(pick(200));
      batch.push_back(inc(name, 1 + pick(3)));
    }
    if (pick(4) == 0) {
      batch.push_back(StoreToken{TokenKind::kSetPayload, {}, 1, "uri"});
    }
    if (batch.empty()) {
      batch.push_back(StoreToken{TokenKind::kTouch, {}, 1, {}});
    }
    ASSERT_TRUE(store.applyAll(k, batch, 0));
    ASSERT_TRUE(oracle.applyAll(k, batch, 0));
    for (int q = 0; q < 8; ++q) {
      GetOptions opt;
      opt.topN = static_cast<u32>(pick(4) == 0 ? 0 : pick(n + 10));
      opt.maxBytes = pick(3) == 0 ? 0 : pick(1200);
      expectSameView(store.query(k, opt), oracle.query(k, opt));
      if (::testing::Test::HasFailure()) {
        FAIL() << "round " << round << " topN " << opt.topN << " maxBytes "
               << opt.maxBytes;
      }
    }
  }
}

TEST(Storage, QueryRanksByWeightDesc) {
  BlockStore s;
  apply(s, key("k"), inc("low", 1));
  apply(s, key("k"), inc("high", 10));
  apply(s, key("k"), inc("mid", 5));
  auto v = s.query(key("k"), {});
  ASSERT_EQ(v->entries.size(), 3u);
  EXPECT_EQ(v->entries[0].name, "high");
  EXPECT_EQ(v->entries[1].name, "mid");
  EXPECT_EQ(v->entries[2].name, "low");
}

TEST(Storage, TieBreakByName) {
  BlockStore s;
  apply(s, key("k"), inc("b", 2));
  apply(s, key("k"), inc("a", 2));
  auto v = s.query(key("k"), {});
  EXPECT_EQ(v->entries[0].name, "a");
  EXPECT_EQ(v->entries[1].name, "b");
}

TEST(Storage, TopNFilterKeepsHeaviest) {
  BlockStore s;
  for (int i = 1; i <= 10; ++i) {
    apply(s, key("k"), inc("e" + std::to_string(i), static_cast<u64>(i)));
  }
  GetOptions opt;
  opt.topN = 3;
  auto v = s.query(key("k"), opt);
  ASSERT_EQ(v->entries.size(), 3u);
  EXPECT_TRUE(v->truncated);
  EXPECT_EQ(v->totalEntries, 10u);
  EXPECT_EQ(v->entries[0].name, "e10");
  EXPECT_EQ(v->entries[1].name, "e9");
  EXPECT_EQ(v->entries[2].name, "e8");
}

TEST(Storage, TopNLargerThanEntriesNoTruncation) {
  BlockStore s;
  apply(s, key("k"), inc("a"));
  GetOptions opt;
  opt.topN = 10;
  auto v = s.query(key("k"), opt);
  EXPECT_EQ(v->entries.size(), 1u);
  EXPECT_FALSE(v->truncated);
}

TEST(Storage, MaxBytesFilterTrims) {
  BlockStore s;
  for (int i = 0; i < 100; ++i) {
    apply(s, key("k"), inc("entry-" + std::to_string(i), 100 - static_cast<u64>(i)));
  }
  GetOptions opt;
  opt.maxBytes = 200;
  auto v = s.query(key("k"), opt);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->truncated);
  EXPECT_LT(v->entries.size(), 100u);
  EXPECT_GT(v->entries.size(), 0u);
  EXPECT_LE(v->byteSize(), 250u);  // approximate accounting
  // Heaviest survived.
  EXPECT_EQ(v->entries[0].name, "entry-0");
}

TEST(Storage, MergeMaxTakesEntrywiseMax) {
  BlockView a;
  a.entries = {{"x", 5}, {"y", 1}};
  BlockView b;
  b.entries = {{"y", 4}, {"z", 2}};
  a.mergeMax(b);
  EXPECT_EQ(a.weightOf("x"), 5u);
  EXPECT_EQ(a.weightOf("y"), 4u);
  EXPECT_EQ(a.weightOf("z"), 2u);
  // Result is weight-ranked again.
  EXPECT_EQ(a.entries[0].name, "x");
}

TEST(Storage, MergeMaxPayloadAndFlags) {
  BlockView a;
  BlockView b;
  b.payload = "uri";
  b.truncated = true;
  b.totalEntries = 7;
  a.mergeMax(b);
  EXPECT_EQ(a.payload, "uri");
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.totalEntries, 7u);
}

TEST(Storage, TokensAppliedCounter) {
  BlockStore s;
  apply(s, key("k"), inc("a", 3));
  apply(s, key("k"), inc("b", 2));
  EXPECT_EQ(s.tokensApplied(), 5u);
}

TEST(Storage, KeysEnumeration) {
  BlockStore s;
  apply(s, key("k1"), inc("a"));
  apply(s, key("k2"), inc("a"));
  EXPECT_EQ(s.keys().size(), 2u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Storage, CanonicalDistinguishesKinds) {
  StoreToken a = inc("e", 1);
  StoreToken b;
  b.kind = TokenKind::kIncrementIfNewB;
  b.entry = "e";
  b.delta = 1;
  EXPECT_NE(a.canonical(), b.canonical());
}

}  // namespace
}  // namespace dharma::dht
