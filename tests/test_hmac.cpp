/// HMAC-SHA1 against RFC 2202 test vectors.

#include "crypto/hmac.hpp"
#include "crypto/identity.hpp"

#include <gtest/gtest.h>

namespace dharma::crypto {
namespace {

TEST(Hmac, Rfc2202Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(toHex(hmacSha1(key, "Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(Hmac, Rfc2202Case2) {
  EXPECT_EQ(toHex(hmacSha1("Jefe", "what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, Rfc2202Case3) {
  std::string key(20, '\xaa');
  std::string data(50, '\xdd');
  EXPECT_EQ(toHex(hmacSha1(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(Hmac, Rfc2202Case6LongKey) {
  std::string key(80, '\xaa');
  EXPECT_EQ(toHex(hmacSha1(key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(Hmac, KeyedObjectMatchesRfc2202) {
  EXPECT_EQ(toHex(HmacSha1(std::string(20, '\x0b')).mac("Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(toHex(HmacSha1("Jefe").mac("what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  EXPECT_EQ(
      toHex(HmacSha1(std::string(20, '\xaa')).mac(std::string(50, '\xdd'))),
      "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
  EXPECT_EQ(
      toHex(HmacSha1(std::string(80, '\xaa'))
                .mac("Test Using Larger Than Block-Size Key - Hash Key First")),
      "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(Hmac, KeyedObjectMidstateIsNotConsumed) {
  const HmacSha1 h("Jefe");
  const Digest160 first = h.mac("what do ya want for nothing?");
  EXPECT_EQ(h.mac("what do ya want for nothing?"), first);
  Sha1 s = h.begin();
  s.update("what do ya ");
  s.update("want for nothing?");
  EXPECT_EQ(h.finish(s), first);  // streaming in pieces == one shot
}

TEST(Hmac, KeySensitivity) {
  EXPECT_NE(hmacSha1("key1", "data"), hmacSha1("key2", "data"));
}

TEST(Hmac, DataSensitivity) {
  EXPECT_NE(hmacSha1("key", "data1"), hmacSha1("key", "data2"));
}

TEST(Hmac, EmptyData) {
  // Self-consistency: defined, deterministic, key-dependent.
  auto a = hmacSha1("key", "");
  auto b = hmacSha1("key", "");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, hmacSha1("other", ""));
}

// The CertificationService MACs, pinned as hex: the fields each MAC covers
// and their exact byte layout are part of the wire contract.
TEST(Hmac, PinnedCredentialMac) {
  CertificationService cs("dharma-cs-secret");
  EXPECT_EQ(toHex(cs.enroll("user-1").mac),
            "d720cced8d8b8a97059b278bde8aa975e77a3499");
  EXPECT_EQ(toHex(cs.enroll("user-1", 123456789).mac),
            "70d08dc7c5bec2e0a2fa7a701b065892a2e33a9e");
}

TEST(Hmac, PinnedContentSignatureMac) {
  CertificationService cs("dharma-cs-secret");
  ContentSignature sig = cs.signContent("user-1", toHex(sha1("block-key")),
                                        "i|rock|3\ni|pop|1\n");
  EXPECT_EQ(toHex(sig.mac), "2b1c0a025d28ae61ed67f43915a1c89f53c368d1");
}

// The digest overloads stream the key's hex: the same bytes, the same MAC.
TEST(Hmac, ContentSignatureFromKeyDigestMatchesHex) {
  CertificationService cs("dharma-cs-secret");
  const Digest160 key = sha1("block-key");
  ContentSignature sig = cs.signContent("user-1", key, "i|rock|3\ni|pop|1\n");
  EXPECT_EQ(toHex(sig.mac), "2b1c0a025d28ae61ed67f43915a1c89f53c368d1");
  EXPECT_TRUE(cs.verifyContent(sig, key, "i|rock|3\ni|pop|1\n"));
  EXPECT_TRUE(cs.verifyContent(sig, toHex(key), "i|rock|3\ni|pop|1\n"));
  EXPECT_FALSE(cs.verifyContent(sig, sha1("other-key"), "i|rock|3\ni|pop|1\n"));
}

TEST(DigestEqual, Works) {
  Digest160 a = sha1("same");
  Digest160 b = sha1("same");
  Digest160 c = sha1("diff");
  EXPECT_TRUE(digestEqual(a, b));
  EXPECT_FALSE(digestEqual(a, c));
}

}  // namespace
}  // namespace dharma::crypto
