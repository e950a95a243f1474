#include "crypto/identity.hpp"

#include <charconv>
#include <type_traits>
#include <utility>

namespace dharma::crypto {

namespace {

/// Absorbs the lower-case hex rendering of \p d (the bytes toHex(d) holds).
void updateHex(Sha1& h, const Digest160& d) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char hex[40];
  for (usize i = 0; i < d.size(); ++i) {
    hex[2 * i] = kDigits[d[i] >> 4];
    hex[2 * i + 1] = kDigits[d[i] & 0xf];
  }
  h.update(std::string_view(hex, sizeof(hex)));
}

/// Absorbs the decimal rendering of \p v (the bytes std::to_string(v) holds).
void updateDecimal(Sha1& h, u64 v) {
  char buf[20];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  h.update(std::string_view(buf, static_cast<usize>(end - buf)));
}

}  // namespace

CertificationService::CertificationService(std::string secret, std::string salt)
    : mac_(secret), salt_(std::move(salt)) {}

Digest160 CertificationService::credentialMac(std::string_view userId,
                                              const Digest160& nodeId,
                                              u64 expiresAt) const {
  Sha1 h = mac_.begin();
  h.update("cred|");
  h.update(userId);
  h.update("|");
  updateHex(h, nodeId);
  h.update("|");
  updateDecimal(h, expiresAt);
  return mac_.finish(h);
}

template <class Key>
Digest160 CertificationService::contentMac(std::string_view userId,
                                           const Key& key,
                                           std::string_view content) const {
  Sha1 h = mac_.begin();
  h.update("tok|");
  h.update(userId);
  h.update("|");
  if constexpr (std::is_same_v<Key, Digest160>) {
    updateHex(h, key);
  } else {
    h.update(key);
  }
  h.update("|");
  h.update(content);
  return mac_.finish(h);
}

Digest160 CertificationService::nodeIdFor(std::string_view userId) const {
  std::string material;
  material.reserve(userId.size() + salt_.size() + 1);
  material += userId;
  material += '|';
  material += salt_;
  return sha1(material);
}

Credential CertificationService::enroll(std::string_view userId,
                                        u64 expiresAt) const {
  Credential c;
  c.userId = std::string(userId);
  c.nodeId = nodeIdFor(userId);
  c.expiresAt = expiresAt;
  c.mac = credentialMac(c.userId, c.nodeId, c.expiresAt);
  return c;
}

bool CertificationService::verify(const Credential& c, u64 now) const {
  if (!c.validAt(now)) return false;
  return digestEqual(credentialMac(c.userId, c.nodeId, c.expiresAt), c.mac);
}

ContentSignature CertificationService::signContent(std::string_view userId,
                                                   std::string_view keyHex,
                                                   std::string_view content) const {
  ContentSignature sig;
  sig.userId = std::string(userId);
  sig.mac = contentMac(userId, keyHex, content);
  return sig;
}

bool CertificationService::verifyContent(const ContentSignature& sig,
                                         std::string_view keyHex,
                                         std::string_view content) const {
  return digestEqual(contentMac(sig.userId, keyHex, content), sig.mac);
}

ContentSignature CertificationService::signContent(
    std::string_view userId, const Digest160& key,
    std::string_view content) const {
  ContentSignature sig;
  sig.userId = std::string(userId);
  sig.mac = contentMac(userId, key, content);
  return sig;
}

bool CertificationService::verifyContent(const ContentSignature& sig,
                                         const Digest160& key,
                                         std::string_view content) const {
  return digestEqual(contentMac(sig.userId, key, content), sig.mac);
}

}  // namespace dharma::crypto
