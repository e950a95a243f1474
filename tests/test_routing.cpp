/// Unit tests for the Kademlia routing table (dht/routing_table.hpp).

#include "dht/routing_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dharma::dht {
namespace {

Contact mk(u32 n) {
  Contact c;
  c.id = NodeId::fromString("rt-contact-" + std::to_string(n));
  c.addr = n;
  return c;
}

TEST(RoutingTable, IgnoresSelf) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self);
  Contact c;
  c.id = self;
  c.addr = 1;
  rt.touch(c);
  EXPECT_EQ(rt.size(), 0u);
  EXPECT_FALSE(rt.contains(self));
}

TEST(RoutingTable, InsertAndContains) {
  RoutingTable rt(NodeId::fromString("self"));
  rt.touch(mk(1));
  EXPECT_TRUE(rt.contains(mk(1).id));
  EXPECT_FALSE(rt.contains(mk(2).id));
  EXPECT_EQ(rt.size(), 1u);
}

TEST(RoutingTable, RemoveWorks) {
  RoutingTable rt(NodeId::fromString("self"));
  rt.touch(mk(1));
  EXPECT_TRUE(rt.remove(mk(1).id));
  EXPECT_FALSE(rt.contains(mk(1).id));
  EXPECT_FALSE(rt.remove(mk(1).id));
}

TEST(RoutingTable, ClosestOrdersByXorDistance) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self);
  for (u32 i = 0; i < 200; ++i) rt.touch(mk(i));
  NodeId target = NodeId::fromString("target");
  auto closest = rt.closest(target, 20);
  ASSERT_EQ(closest.size(), 20u);
  for (usize i = 1; i < closest.size(); ++i) {
    EXPECT_LE(compareDistance(target, closest[i - 1].id, closest[i].id), 0);
  }
}

TEST(RoutingTable, ClosestIsGloballyBestWithRoomyBuckets) {
  // With buckets large enough that no contact is dropped, the head of
  // closest() must be the globally nearest inserted contact. (With default
  // capacity, far buckets overflow and drop contacts — by design.)
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, /*bucketCap=*/256);
  for (u32 i = 0; i < 200; ++i) rt.touch(mk(i));
  ASSERT_EQ(rt.size(), 200u);
  NodeId target = NodeId::fromString("target");
  auto closest = rt.closest(target, 20);
  ASSERT_FALSE(closest.empty());
  Contact best = closest[0];
  for (u32 i = 0; i < 200; ++i) {
    EXPECT_LE(compareDistance(target, best.id, mk(i).id), 0);
  }
}

TEST(RoutingTable, ClosestMatchesBruteForceSort) {
  // Randomized against a full sort by compareDistance. A third of the ids
  // share the target's top 8 or 16 bytes, so the ranking must also order
  // distances that agree on their leading words.
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    RoutingTable rt(NodeId::random(rng), /*bucketCap=*/8);
    const NodeId target = NodeId::random(rng);
    for (u32 i = 0; i < 300; ++i) {
      Contact c;
      c.id = NodeId::random(rng);
      const usize shared = (i % 3 == 0) ? 8 * (1 + rng.uniform(2)) : 0;
      std::copy_n(target.bytes.begin(), shared, c.id.bytes.begin());
      c.addr = i;
      rt.touch(c);
    }
    std::vector<Contact> all;
    for (usize b = 0; b < 160; ++b) {
      const auto& e = rt.bucket(b).entries();
      all.insert(all.end(), e.begin(), e.end());
    }
    std::sort(all.begin(), all.end(), [&](const Contact& a, const Contact& b) {
      return compareDistance(target, a.id, b.id) < 0;
    });
    const usize n = 1 + rng.uniform(40);
    all.resize(std::min(n, all.size()));
    EXPECT_EQ(rt.closest(target, n), all) << "round " << round;
  }
}

TEST(RoutingTable, ClosestFewerThanRequested) {
  RoutingTable rt(NodeId::fromString("self"));
  rt.touch(mk(1));
  rt.touch(mk(2));
  EXPECT_EQ(rt.closest(NodeId::fromString("t"), 20).size(), 2u);
}

TEST(RoutingTable, ClosestOnEmpty) {
  RoutingTable rt(NodeId::fromString("self"));
  EXPECT_TRUE(rt.closest(NodeId::fromString("t"), 5).empty());
}

TEST(RoutingTable, BucketCapacityEnforced) {
  // With bucket capacity 2, the total size is bounded by 2 * 160 and any
  // single bucket never exceeds 2.
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, 2);
  for (u32 i = 0; i < 1000; ++i) rt.touch(mk(i));
  for (usize b = 0; b < 160; ++b) {
    EXPECT_LE(rt.bucket(b).size(), 2u);
  }
}

TEST(RoutingTable, EvictionCandidatePerBucket) {
  NodeId self = NodeId::fromString("self");
  RoutingTable rt(self, 1);
  // Find two contacts in the same bucket.
  Contact first = mk(1);
  rt.touch(first);
  int idx1 = bucketIndex(self, first.id);
  u32 n = 2;
  Contact second;
  while (true) {
    second = mk(n++);
    if (bucketIndex(self, second.id) == idx1) break;
  }
  EXPECT_EQ(rt.touch(second), BucketInsert::kFull);
  auto cand = rt.evictionCandidateFor(second);
  ASSERT_TRUE(cand.has_value());
  EXPECT_EQ(cand->id, first.id);
  rt.replaceStalestWith(second);
  EXPECT_TRUE(rt.contains(second.id));
  EXPECT_FALSE(rt.contains(first.id));
}

TEST(RoutingTable, NonEmptyBucketsCounts) {
  RoutingTable rt(NodeId::fromString("self"));
  EXPECT_EQ(rt.nonEmptyBuckets(), 0u);
  rt.touch(mk(1));
  EXPECT_GE(rt.nonEmptyBuckets(), 1u);
}

}  // namespace
}  // namespace dharma::dht
