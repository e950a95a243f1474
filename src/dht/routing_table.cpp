#include "dht/routing_table.hpp"

#include <algorithm>
#include <compare>
#include <utility>

namespace dharma::dht {

namespace {

/// An XOR distance as big-endian words: ordering the words orders the
/// 160-bit distance, at a few integer compares instead of a byte loop.
struct Distance {
  u64 hi = 0;
  u64 mid = 0;
  u32 lo = 0;
  auto operator<=>(const Distance&) const = default;
};

u64 loadBigEndian(const u8* p, usize n) {
  u64 v = 0;
  for (usize i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

Distance distanceTo(const NodeId& target, const NodeId& id) {
  const NodeId d = xorDistance(target, id);
  const u8* p = d.bytes.data();
  return {loadBigEndian(p, 8), loadBigEndian(p + 8, 8),
          static_cast<u32>(loadBigEndian(p + 16, 4))};
}

}  // namespace

RoutingTable::RoutingTable(const NodeId& self, usize bucketCap) : self_(self) {
  buckets_.fill(KBucket(bucketCap));
}

BucketInsert RoutingTable::touch(const Contact& c) {
  int idx = indexFor(c.id);
  if (idx < 0) return BucketInsert::kUpdated;  // self; ignore
  return buckets_[static_cast<usize>(idx)].touch(c);
}

std::optional<Contact> RoutingTable::evictionCandidateFor(const Contact& c) const {
  int idx = indexFor(c.id);
  if (idx < 0) return std::nullopt;
  return buckets_[static_cast<usize>(idx)].evictionCandidate();
}

void RoutingTable::replaceStalestWith(const Contact& c) {
  int idx = indexFor(c.id);
  if (idx < 0) return;
  buckets_[static_cast<usize>(idx)].replaceStalest(c);
}

bool RoutingTable::replaceContact(const NodeId& victim, const Contact& c) {
  int idx = indexFor(c.id);
  if (idx < 0) return false;
  return buckets_[static_cast<usize>(idx)].replace(victim, c);
}

bool RoutingTable::remove(const NodeId& id) {
  int idx = indexFor(id);
  if (idx < 0) return false;
  return buckets_[static_cast<usize>(idx)].remove(id);
}

bool RoutingTable::contains(const NodeId& id) const {
  int idx = indexFor(id);
  if (idx < 0) return false;
  return buckets_[static_cast<usize>(idx)].contains(id);
}

std::vector<Contact> RoutingTable::closest(const NodeId& target, usize n) const {
  // Each contact's distance is computed once; ids are distinct, so are
  // their distances.
  std::vector<std::pair<Distance, const Contact*>> ranked;
  ranked.reserve(size());
  for (const auto& b : buckets_) {
    for (const Contact& c : b.entries()) {
      ranked.emplace_back(distanceTo(target, c.id), &c);
    }
  }
  const usize take = std::min(n, ranked.size());
  std::partial_sort(
      ranked.begin(), ranked.begin() + static_cast<long>(take), ranked.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Contact> out;
  out.reserve(take);
  for (usize i = 0; i < take; ++i) out.push_back(*ranked[i].second);
  return out;
}

NodeId RoutingTable::randomIdInBucket(usize bucket, Rng& rng) const {
  auto setBit = [](NodeId& n, usize i, bool v) {
    u8& byte = n.bytes[19 - i / 8];
    u8 mask = static_cast<u8>(1u << (i % 8));
    if (v) {
      byte |= mask;
    } else {
      byte &= static_cast<u8>(~mask);
    }
  };
  // Share the owner's prefix above `bucket`, differ exactly at `bucket`,
  // randomise everything below.
  NodeId id = self_;
  setBit(id, bucket, !self_.bit(static_cast<int>(bucket)));
  u64 bits = 0;
  int have = 0;
  for (usize i = 0; i < bucket; ++i) {
    if (have == 0) {
      bits = rng.next();
      have = 64;
    }
    setBit(id, i, (bits & 1) != 0);
    bits >>= 1;
    --have;
  }
  return id;
}

usize RoutingTable::size() const {
  usize n = 0;
  for (const auto& b : buckets_) n += b.size();
  return n;
}

usize RoutingTable::nonEmptyBuckets() const {
  usize n = 0;
  for (const auto& b : buckets_) n += b.size() > 0 ? 1 : 0;
  return n;
}

}  // namespace dharma::dht
