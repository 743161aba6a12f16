// 32-byte digest value type shared by every authenticated data structure.

#ifndef IMAGEPROOF_CRYPTO_DIGEST_H_
#define IMAGEPROOF_CRYPTO_DIGEST_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"

namespace imageproof::crypto {

inline constexpr size_t kDigestSize = 32;

// Fixed-size hash output. Value semantics; comparable; hashable as map key.
struct Digest {
  std::array<uint8_t, kDigestSize> bytes{};

  bool operator==(const Digest& other) const { return bytes == other.bytes; }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  bool operator<(const Digest& other) const { return bytes < other.bytes; }

  // All-zero digest; used as the chain terminator for the last posting in a
  // Merkle inverted list (Definition 4 needs h_{pos_{n+1}}).
  static Digest Zero() { return Digest{}; }

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  std::string ToHex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out;
    out.reserve(2 * kDigestSize);
    for (uint8_t b : bytes) {
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xF]);
    }
    return out;
  }
};

inline void PutDigest(ByteWriter& w, const Digest& d) {
  w.PutBytes(d.bytes.data(), d.bytes.size());
}

inline Status GetDigest(ByteReader& r, Digest* out) {
  return r.GetBytes(kDigestSize, out->bytes.data());
}

struct DigestHasher {
  size_t operator()(const Digest& d) const {
    uint64_t v;
    std::memcpy(&v, d.bytes.data(), sizeof(v));
    return static_cast<size_t>(v);
  }
};

}  // namespace imageproof::crypto

#endif  // IMAGEPROOF_CRYPTO_DIGEST_H_
