/// Fuzz-style decode hardening tests (dht/rpc.cpp, util/buffer.cpp).
///
/// Over real UDP, RPC payloads arrive from a socket: every decoder
/// is now a trust boundary. The property under test is *clean rejection*:
/// for ANY input — truncated, bit-flipped, oversized counts, random bytes —
/// a decoder either succeeds or throws DecodeError. Nothing else may
/// escape: the RPC handlers catch exactly DecodeError, so a stray
/// std::length_error (what an unchecked reserve(2^60) used to raise) or
/// std::bad_alloc would tear the node down. Run under ASan/UBSan in CI,
/// this doubles as a memory-safety sweep over the decode paths.

#include "dht/rpc.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "util/rng.hpp"

namespace dharma::dht {
namespace {

crypto::CertificationService cs("fuzz-secret");

/// One RPC body kind: a name, a valid encoding, and its decoder.
struct Codec {
  const char* name;
  std::vector<u8> bytes;
  std::function<void(ByteReader&)> decode;
};

BlockView sampleView() {
  BlockView v;
  for (int i = 0; i < 8; ++i) {
    v.entries.push_back(BlockEntry{"entry-" + std::to_string(i),
                                   static_cast<u64>(1000 + i)});
  }
  v.payload = "uri://payload";
  v.truncated = true;
  v.totalEntries = 20;
  return v;
}

std::vector<Codec> allCodecs() {
  std::vector<Codec> codecs;

  FindNodeReq fn;
  fn.target = NodeId::fromString("target");
  codecs.push_back({"FindNodeReq", fn.encode(),
                    [](ByteReader& r) { FindNodeReq::decode(r); }});

  ContactsReply cr;
  for (u32 i = 0; i < 10; ++i) {
    cr.contacts.push_back(Contact{NodeId::fromString("c" + std::to_string(i)), i});
  }
  codecs.push_back({"ContactsReply", cr.encode(),
                    [](ByteReader& r) { ContactsReply::decode(r); }});

  FindValueReq fv;
  fv.key = NodeId::fromString("key");
  fv.topN = 32;
  fv.maxBytes = 1200;
  fv.allowCached = true;
  codecs.push_back({"FindValueReq", fv.encode(),
                    [](ByteReader& r) { FindValueReq::decode(r); }});

  FindValueReply fvrFound;
  fvrFound.found = true;
  fvrFound.cached = true;
  fvrFound.view = sampleView();
  codecs.push_back({"FindValueReply.found", fvrFound.encode(),
                    [](ByteReader& r) { FindValueReply::decode(r); }});

  FindValueReply fvrMiss;
  fvrMiss.found = false;
  fvrMiss.contacts = cr.contacts;
  codecs.push_back({"FindValueReply.miss", fvrMiss.encode(),
                    [](ByteReader& r) { FindValueReply::decode(r); }});

  StoreReq st;
  st.key = NodeId::fromString("block");
  st.putId = 77;
  st.chunk = 3;
  for (int i = 0; i < 6; ++i) {
    st.tokens.push_back(StoreToken{TokenKind::kIncrement,
                                   "tag-" + std::to_string(i),
                                   static_cast<u64>(i + 1), ""});
  }
  st.tokens.push_back(StoreToken{TokenKind::kSetPayload, "", 1, "uri://x"});
  st.signature = cs.signContent("alice", st.key.toHex(), st.canonicalBatch());
  codecs.push_back({"StoreReq", st.encode(),
                    [](ByteReader& r) { StoreReq::decode(r); }});

  StoreReply sr;
  sr.ok = true;
  codecs.push_back({"StoreReply", sr.encode(),
                    [](ByteReader& r) { StoreReply::decode(r); }});

  StoreCacheReq sc;
  sc.key = NodeId::fromString("cached-block");
  sc.ttlUs = 30'000'000;
  sc.view = sampleView();
  codecs.push_back({"StoreCacheReq", sc.encode(),
                    [](ByteReader& r) { StoreCacheReq::decode(r); }});

  StoreCacheReply scr;
  scr.ok = true;
  codecs.push_back({"StoreCacheReply", scr.encode(),
                    [](ByteReader& r) { StoreCacheReply::decode(r); }});

  return codecs;
}

/// Runs one decode attempt. Success and DecodeError are both clean; any
/// other escaping exception is the bug this suite exists to catch.
enum class DecodeOutcome { kOk, kRejected };

DecodeOutcome cleanDecode(const Codec& c, const std::vector<u8>& bytes) {
  try {
    ByteReader r(bytes);
    c.decode(r);
    return DecodeOutcome::kOk;
  } catch (const DecodeError&) {
    return DecodeOutcome::kRejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << c.name << ": non-DecodeError exception escaped: "
                  << e.what();
    return DecodeOutcome::kRejected;
  }
}

TEST(RpcFuzz, EveryTruncationRejectsCleanly) {
  for (const Codec& c : allCodecs()) {
    // A strict prefix always loses at least the final field, so every
    // truncation point must throw DecodeError — never anything else.
    for (usize len = 0; len < c.bytes.size(); ++len) {
      std::vector<u8> cut(c.bytes.begin(), c.bytes.begin() + len);
      EXPECT_EQ(cleanDecode(c, cut), DecodeOutcome::kRejected)
          << c.name << " accepted a strict prefix of length " << len;
    }
  }
}

TEST(RpcFuzz, EveryBitFlipDecodesCleanly) {
  for (const Codec& c : allCodecs()) {
    for (usize byte = 0; byte < c.bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<u8> flipped = c.bytes;
        flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
        cleanDecode(c, flipped);  // must not crash or leak a foreign throw
      }
    }
  }
}

TEST(RpcFuzz, OversizedElementCountsRejected) {
  // Regression for the checkedCount() guard: a count field rewritten to
  // 2^59 used to reach reserve() and raise std::length_error through the
  // DecodeError-only catch blocks (terminate, with a real socket feeding
  // the bytes). The guard must reject it as a plain DecodeError.
  auto withHugeCount = [](const std::vector<u8>& bytes, usize countOffset) {
    std::vector<u8> mutated(bytes.begin(), bytes.begin() + countOffset);
    for (int i = 0; i < 8; ++i) mutated.push_back(0xff);  // LEB128 2^56..
    mutated.push_back(0x0f);
    mutated.insert(mutated.end(), bytes.begin() + countOffset + 1,
                   bytes.end());
    return mutated;
  };

  for (const Codec& c : allCodecs()) {
    std::string n = c.name;
    usize countOffset;
    if (n == "ContactsReply") {
      countOffset = 0;  // leading contact count
    } else if (n == "FindValueReply.miss") {
      countOffset = 1;  // found byte, then contact count
    } else if (n == "FindValueReply.found" || n == "StoreCacheReq") {
      continue;  // view counts covered via the dedicated case below
    } else if (n == "StoreReq") {
      countOffset = 22;  // key(20) + putId varint(1) + chunk varint(1)
    } else {
      continue;  // no element count in this body
    }
    EXPECT_EQ(cleanDecode(c, withHugeCount(c.bytes, countOffset)),
              DecodeOutcome::kRejected)
        << c.name << " swallowed a 2^59 element count";
  }

  // BlockView's entry count, as embedded in FindValueReply.found:
  // found(1) + cached(1), then the view's entry-count varint.
  FindValueReply fvr;
  fvr.found = true;
  fvr.view = sampleView();
  Codec viewCodec{"FindValueReply.found", fvr.encode(),
                  [](ByteReader& r) { FindValueReply::decode(r); }};
  EXPECT_EQ(cleanDecode(viewCodec, withHugeCount(viewCodec.bytes, 2)),
            DecodeOutcome::kRejected)
      << "BlockView swallowed a 2^59 entry count";
}

// ---------------------------------------------------------------------------
// Envelope-version compatibility (the (ip,port) wire bump)
// ---------------------------------------------------------------------------

/// Byte-for-byte reconstruction of a v1 datagram: no magic/version header,
/// the type byte first, and a bare-u32 contact address. This is what every
/// pre-bump dharma_node put on the wire.
std::vector<u8> encodeV1Envelope(RpcType type, u64 rpcId,
                                 const Contact& sender,
                                 const crypto::Credential& cred,
                                 const std::vector<u8>& body) {
  ByteWriter w;
  w.writeU8(static_cast<u8>(type));
  w.writeU64(rpcId);
  writeNodeId(w, sender.id);
  w.writeU32(static_cast<u32>(sender.addr));  // v1: bare port, 4 bytes
  writeCredential(w, cred);
  w.writeBytes(body.data(), body.size());
  return w.take();
}

TEST(RpcCompat, V1DatagramsRejectedForEveryRpcType) {
  Contact sender{NodeId::fromString("v1-node"), 9000};
  crypto::Credential cred = cs.enroll("v1-user", 1);
  std::vector<u8> body(64, 0x5c);
  for (u8 t = 0; t <= static_cast<u8>(RpcType::kStoreCacheReply); ++t) {
    auto v1 = encodeV1Envelope(static_cast<RpcType>(t), 12345, sender, cred,
                               body);
    // A v1 datagram leads with its type byte, which can never equal the
    // magic — so the decode must reject it outright, not misparse the
    // remaining fields into a garbage envelope.
    EXPECT_FALSE(Envelope::decode(v1).has_value())
        << "v1 datagram of type " << int(t) << " was accepted";
  }
}

TEST(RpcCompat, WrongVersionByteRejected) {
  Envelope e;
  e.type = RpcType::kFindNode;
  e.rpcId = 42;
  e.sender = Contact{NodeId::fromString("n"), net::makeAddress(0x0A000001, 9)};
  e.credential = cs.enroll("carol", 3);
  std::vector<u8> bytes = e.encode();
  ASSERT_EQ(bytes[0], kWireMagic);
  ASSERT_EQ(bytes[1], kWireVersion);
  for (int v : {0, 1, 3, 0x7f, 0xff}) {
    std::vector<u8> mutated = bytes;
    mutated[1] = static_cast<u8>(v);
    EXPECT_FALSE(Envelope::decode(mutated).has_value())
        << "version byte " << v << " was accepted";
  }
}

TEST(RpcCompat, V2RoundTripsBitExact) {
  Envelope e;
  e.type = RpcType::kStore;
  e.rpcId = 0xABCDEF0123456789ULL;
  // A non-loopback (ip, port): the widened field must carry all 48 bits.
  e.sender = Contact{NodeId::fromString("multi-host"),
                     net::makeAddress(0xC0A80142, 41999)};  // 192.168.1.66
  e.credential = cs.enroll("dave", 7);
  e.body.assign(128, 0x3d);

  std::vector<u8> bytes = e.encode();
  auto decoded = Envelope::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender.addr, e.sender.addr);
  EXPECT_EQ(net::addressIp(decoded->sender.addr), 0xC0A80142u);
  EXPECT_EQ(net::addressPort(decoded->sender.addr), 41999u);
  // Re-encoding the decoded envelope must reproduce the datagram exactly:
  // the codec pair loses nothing, pads nothing.
  EXPECT_EQ(decoded->encode(), bytes);
}

TEST(RpcCompat, NullAddressRoundTrips) {
  // kNullAddress is all 48 wire bits set, so even the "no endpoint"
  // sentinel survives the (ip, port) split-and-repack unchanged.
  ByteWriter w;
  writeContact(w, Contact{NodeId::fromString("null-addr"), net::kNullAddress});
  ByteReader r(w.bytes());
  Contact back = readContact(r);
  EXPECT_EQ(back.addr, net::kNullAddress);
}

TEST(RpcCompat, AddressFieldFlipsNeverCorruptNeighbouringFields) {
  Envelope e;
  e.type = RpcType::kPong;
  e.rpcId = 777;
  e.sender = Contact{NodeId::fromString("addr-fuzz"),
                     net::makeAddress(0x7F000001, 6001)};
  e.credential = cs.enroll("erin", 9);
  e.body = {1, 2, 3};
  std::vector<u8> bytes = e.encode();

  // The sender address occupies exactly [31, 37): magic(1) + version(1) +
  // type(1) + rpcId(8) + nodeId(20), then ip(4) + port(2). Flipping any of
  // its bits must still decode — to an envelope identical in every OTHER
  // field, with only the address changed. Fixed-width address fields can
  // shift nothing.
  constexpr usize kAddrOff = 31;
  constexpr usize kAddrLen = 6;
  for (usize byte = kAddrOff; byte < kAddrOff + kAddrLen; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> flipped = bytes;
      flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
      auto decoded = Envelope::decode(flipped);
      ASSERT_TRUE(decoded.has_value())
          << "address-bit flip at byte " << byte << " bit " << bit
          << " broke the whole decode";
      EXPECT_NE(decoded->sender.addr, e.sender.addr);
      EXPECT_EQ(decoded->type, e.type);
      EXPECT_EQ(decoded->rpcId, e.rpcId);
      EXPECT_EQ(decoded->sender.id, e.sender.id);
      EXPECT_EQ(decoded->body, e.body);
    }
  }
}

TEST(RpcFuzz, EnvelopeSurvivesTruncationAndBitFlips) {
  Envelope e;
  e.type = RpcType::kStore;
  e.rpcId = 0x1122334455667788ULL;
  e.sender.id = NodeId::fromString("sender");
  e.sender.addr = 9999;
  e.credential = cs.enroll("bob", 777);
  e.body.assign(200, 0xab);
  std::vector<u8> bytes = e.encode();

  for (usize len = 0; len < bytes.size(); ++len) {
    std::vector<u8> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(Envelope::decode(cut).has_value())
        << "envelope accepted a strict prefix of length " << len;
  }
  for (usize byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> flipped = bytes;
      flipped[byte] = static_cast<u8>(flipped[byte] ^ (1u << bit));
      Envelope::decode(flipped);  // optional result; must never throw
    }
  }
}

TEST(RpcFuzz, RandomDatagramsNeverCrashEnvelopeDecode) {
  Rng rng(20260731);
  for (int trial = 0; trial < 2000; ++trial) {
    usize len = static_cast<usize>(rng.uniform(1400));
    std::vector<u8> noise(len);
    for (auto& b : noise) b = static_cast<u8>(rng.uniform(256));
    Envelope::decode(noise);  // returns nullopt or a decoded envelope
  }
}

TEST(RpcFuzz, RandomBodiesNeverLeakForeignExceptions) {
  Rng rng(424242);
  auto codecs = allCodecs();
  for (const Codec& c : codecs) {
    for (int trial = 0; trial < 400; ++trial) {
      usize len = static_cast<usize>(rng.uniform(600));
      std::vector<u8> noise(len);
      for (auto& b : noise) b = static_cast<u8>(rng.uniform(256));
      cleanDecode(c, noise);
    }
  }
}

}  // namespace
}  // namespace dharma::dht
