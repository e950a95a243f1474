#include "crypto/sha1.hpp"

#include <cstring>
#include <stdexcept>

namespace dharma::crypto {

namespace {
constexpr u32 rotl32(u32 x, int k) { return (x << k) | (x >> (32 - k)); }
}  // namespace

void Sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  totalLen_ = 0;
  blockLen_ = 0;
}

void Sha1::processBlock(const u8* p) {
  u32 w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<u32>(p[i * 4]) << 24) | (static_cast<u32>(p[i * 4 + 1]) << 16) |
           (static_cast<u32>(p[i * 4 + 2]) << 8) | static_cast<u32>(p[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  u32 a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    u32 f, k;
    if (i < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    u32 tmp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(const u8* data, usize len) {
  totalLen_ += len;
  while (len > 0) {
    usize take = std::min(len, usize{64} - blockLen_);
    std::memcpy(block_ + blockLen_, data, take);
    blockLen_ += take;
    data += take;
    len -= take;
    if (blockLen_ == 64) {
      processBlock(block_);
      blockLen_ = 0;
    }
  }
}

Digest160 Sha1::finish() {
  const u64 bitLen = totalLen_ * 8;
  // Append 0x80, pad with zeros to 56 mod 64, then 64-bit big-endian length.
  block_[blockLen_++] = 0x80;
  if (blockLen_ > 56) {
    std::memset(block_ + blockLen_, 0, 64 - blockLen_);
    processBlock(block_);
    blockLen_ = 0;
  }
  std::memset(block_ + blockLen_, 0, 56 - blockLen_);
  for (int i = 0; i < 8; ++i) {
    block_[56 + i] = static_cast<u8>(bitLen >> (56 - 8 * i));
  }
  processBlock(block_);
  blockLen_ = 0;

  Digest160 out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<u8>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<u8>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<u8>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<u8>(h_[i]);
  }
  return out;
}

Digest160 sha1(std::string_view data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Digest160 sha1(const u8* data, usize len) {
  Sha1 h;
  h.update(data, len);
  return h.finish();
}

std::string toHex(const Digest160& d) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (u8 b : d) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

Digest160 digestFromHex(std::string_view hex) {
  if (hex.size() != 40) throw std::invalid_argument("digestFromHex: need 40 chars");
  auto nib = [](char c) -> u8 {
    if (c >= '0' && c <= '9') return static_cast<u8>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<u8>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<u8>(c - 'A' + 10);
    throw std::invalid_argument("digestFromHex: bad hex char");
  };
  Digest160 d;
  for (usize i = 0; i < 20; ++i) {
    d[i] = static_cast<u8>((nib(hex[2 * i]) << 4) | nib(hex[2 * i + 1]));
  }
  return d;
}

}  // namespace dharma::crypto
