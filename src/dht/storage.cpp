#include "dht/storage.hpp"

#include <algorithm>

namespace dharma::dht {

std::string StoreToken::canonical() const {
  std::string s;
  s.reserve(entry.size() + payload.size() + 16);
  switch (kind) {
    case TokenKind::kIncrement: s += "inc|"; break;
    case TokenKind::kSetPayload: s += "pay|"; break;
    case TokenKind::kTouch: s += "tch|"; break;
    case TokenKind::kIncrementIfNewB: s += "icb|"; break;
    case TokenKind::kMergeMax: s += "max|"; break;
  }
  s += entry;
  s += '|';
  s += std::to_string(delta);
  s += '|';
  s += payload;
  return s;
}

u64 BlockView::weightOf(std::string_view name) const {
  for (const auto& e : entries) {
    if (e.name == name) return e.weight;
  }
  return 0;
}

void BlockView::mergeMax(const BlockView& other, usize topN) {
  std::map<std::string, u64> merged;
  for (const auto& e : entries) merged[e.name] = e.weight;
  for (const auto& e : other.entries) {
    u64& w = merged[e.name];
    w = std::max(w, e.weight);
  }
  entries.clear();
  entries.reserve(merged.size());
  for (auto& [name, w] : merged) entries.push_back(BlockEntry{name, w});
  std::sort(entries.begin(), entries.end(), [](const BlockEntry& a, const BlockEntry& b) {
    return a.weight != b.weight ? a.weight > b.weight : a.name < b.name;
  });
  // Two topN-filtered replica views can union to more than topN distinct
  // entries; re-apply the caller's cap so a "truncated" view is never larger
  // than what was asked for.
  if (topN > 0 && entries.size() > topN) {
    entries.resize(topN);
    truncated = true;
  }
  if (payload.empty()) payload = other.payload;
  truncated = truncated || other.truncated;
  totalEntries = std::max(totalEntries, other.totalEntries);
}

usize BlockView::byteSize() const {
  usize n = payload.size() + 16;
  for (const auto& e : entries) n += e.name.size() + 10;
  return n;
}

void BlockView::trim(const GetOptions& opt) {
  if (opt.topN > 0 && entries.size() > opt.topN) {
    entries.resize(opt.topN);
    truncated = true;
  }
  if (opt.maxBytes > 0) {
    usize budget = opt.maxBytes > 16 + payload.size()
                       ? opt.maxBytes - 16 - payload.size()
                       : 0;
    usize used = 0;
    usize keep = 0;
    for (; keep < entries.size(); ++keep) {
      usize cost = entries[keep].name.size() + 10;
      if (used + cost > budget) break;
      used += cost;
    }
    if (keep < entries.size()) {
      entries.resize(keep);
      truncated = true;
    }
  }
}

namespace {

/// Kinds whose token names an entry and creates it when absent.
bool createsEntry(TokenKind k) {
  return k == TokenKind::kIncrement || k == TokenKind::kIncrementIfNewB ||
         k == TokenKind::kMergeMax;
}

}  // namespace

bool BlockStore::accepts(const Block* block,
                         std::span<const StoreToken> earlier,
                         const StoreToken& t) {
  switch (t.kind) {
    case TokenKind::kSetPayload:
    case TokenKind::kTouch:
      return true;
    case TokenKind::kIncrement:
    case TokenKind::kMergeMax:
      return !t.entry.empty() && t.delta != 0;
    case TokenKind::kIncrementIfNewB: {
      if (t.entry.empty()) return false;
      if (t.delta != 0) return true;
      // Delta 0 is only defined on the create path: the present path adds
      // delta, which must be non-zero as for kIncrement. The entry is
      // present if the block holds it or an earlier token creates it.
      if (block != nullptr && block->entries.count(t.entry) > 0) return false;
      return std::none_of(earlier.begin(), earlier.end(),
                          [&](const StoreToken& e) {
                            return createsEntry(e.kind) && e.entry == t.entry;
                          });
    }
  }
  return false;
}

void BlockStore::mutate(Block& b, const StoreToken& t, net::SimTime now) {
  switch (t.kind) {
    case TokenKind::kIncrement:
      b.entries[t.entry] += t.delta;
      tokensApplied_ += t.delta;
      break;
    case TokenKind::kSetPayload:
      b.payload = t.payload;
      ++tokensApplied_;
      break;
    case TokenKind::kTouch:
      ++tokensApplied_;
      break;
    case TokenKind::kIncrementIfNewB: {
      auto [it, inserted] = b.entries.emplace(t.entry, 1);
      if (!inserted) it->second += t.delta;
      tokensApplied_ += inserted ? 1 : t.delta;
      break;
    }
    case TokenKind::kMergeMax: {
      u64& w = b.entries[t.entry];
      w = std::max(w, t.delta);
      ++tokensApplied_;
      break;
    }
  }
  b.lastTouchedUs = std::max(b.lastTouchedUs, now);
}

bool BlockStore::apply(const NodeId& key, const StoreToken& token,
                       net::SimTime now) {
  return applyAll(key, {token}, now);
}

bool BlockStore::applyAll(const NodeId& key,
                          const std::vector<StoreToken>& tokens,
                          net::SimTime now) {
  if (tokens.empty()) return false;
  // Atomicity by validation: every token is decided against the current
  // block and the batch's earlier tokens before any of them lands, so a
  // rejected batch touches nothing and no rollback copy is needed.
  auto it = blocks_.find(key);
  const Block* block = it == blocks_.end() ? nullptr : &it->second;
  const std::span<const StoreToken> batch(tokens);
  for (usize i = 0; i < batch.size(); ++i) {
    if (!accepts(block, batch.first(i), batch[i])) return false;
  }
  Block& b = block != nullptr ? it->second : blocks_[key];
  for (const auto& t : tokens) mutate(b, t, now);
  return true;
}

std::optional<BlockView> BlockStore::query(const NodeId& key,
                                           const GetOptions& opt) const {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return std::nullopt;
  const Block& b = it->second;

  BlockView v;
  v.payload = b.payload;
  v.totalEntries = b.entries.size();
  // Index-side ranking: heaviest entries first so that trimming keeps the
  // most relevant tags/resources (Section V-A). Only the top-N cap's worth
  // is ranked and copied; the byte budget is applied by trim() after.
  using Entry = std::map<std::string, u64>::value_type;
  std::vector<const Entry*> ranked;
  ranked.reserve(b.entries.size());
  for (const auto& e : b.entries) ranked.push_back(&e);
  const auto byRank = [](const Entry* a, const Entry* b2) {
    return a->second != b2->second ? a->second > b2->second
                                   : a->first < b2->first;
  };
  usize keep = ranked.size();
  if (opt.topN > 0 && opt.topN < keep) {
    keep = opt.topN;
    std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                      byRank);
    v.truncated = true;
  } else {
    std::sort(ranked.begin(), ranked.end(), byRank);
  }
  v.entries.reserve(keep);
  for (usize i = 0; i < keep; ++i) {
    v.entries.push_back(BlockEntry{ranked[i]->first, ranked[i]->second});
  }
  v.trim(opt);
  return v;
}

std::vector<NodeId> BlockStore::keys() const {
  std::vector<NodeId> out;
  out.reserve(blocks_.size());
  for (const auto& [k, _] : blocks_) out.push_back(k);
  return out;
}

net::SimTime BlockStore::lastTouched(const NodeId& key) const {
  auto it = blocks_.find(key);
  return it == blocks_.end() ? 0 : it->second.lastTouchedUs;
}

usize BlockStore::expire(net::SimTime olderThan) {
  usize dropped = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->second.lastTouchedUs < olderThan) {
      it = blocks_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace dharma::dht
