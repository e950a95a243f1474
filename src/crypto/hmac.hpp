#pragma once
/// \file hmac.hpp
/// \brief HMAC-SHA1 (RFC 2104).
///
/// The identity layer authenticates credentials and stored tokens with
/// HMACs keyed by the Certification Service. This substitutes Likir's RSA
/// signatures (see docs/DESIGN.md §2): the verify/reject control flow is the
/// same, only the primitive differs.

#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"

namespace dharma::crypto {

/// HMAC-SHA1 under one fixed key. The constructor absorbs key⊕ipad and
/// key⊕opad into two SHA-1 midstates; every MAC starts from copies of them,
/// so it costs two compressions fewer than keying from scratch. The object
/// is never mutated after construction, so one instance may be shared by
/// any number of threads.
class HmacSha1 {
 public:
  explicit HmacSha1(std::string_view key);

  /// MAC over \p data.
  Digest160 mac(const u8* data, usize len) const;
  Digest160 mac(std::string_view data) const {
    return mac(reinterpret_cast<const u8*>(data.data()), data.size());
  }

  /// Streaming form: begin() returns a hasher primed with the inner
  /// midstate; update() it with the message, then finish() it.
  Sha1 begin() const { return inner_; }
  Digest160 finish(Sha1& inner) const;

 private:
  Sha1 inner_;  ///< state after absorbing key⊕ipad
  Sha1 outer_;  ///< state after absorbing key⊕opad
};

/// HMAC-SHA1 over \p data with \p key (one-off key; see HmacSha1 to reuse
/// a key).
Digest160 hmacSha1(std::string_view key, std::string_view data);
Digest160 hmacSha1(std::string_view key, const u8* data, usize len);

/// Constant-time digest comparison.
bool digestEqual(const Digest160& a, const Digest160& b);

}  // namespace dharma::crypto
