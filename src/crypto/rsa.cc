#include "crypto/rsa.h"

#include <cstring>

namespace imageproof::crypto {

namespace {

// PKCS#1-v1.5-style deterministic padding of a 32-byte digest into a
// modulus-sized block: 0x00 0x01 FF..FF 0x00 | marker | digest.
// The marker stands in for the DER AlgorithmIdentifier of SHA3-256.
constexpr uint8_t kSha3Marker[4] = {0x53, 0x33, 0x32, 0x36};  // "S326"
static_assert(kRsaMinModulusBytes == 3 + sizeof(kSha3Marker) + kDigestSize);

// block_len must be at least kRsaMinModulusBytes.
Bytes EncodeDigestBlock(const Digest& digest, size_t block_len) {
  Bytes em(block_len, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  size_t payload = sizeof(kSha3Marker) + kDigestSize;
  em[block_len - payload - 1] = 0x00;
  std::memcpy(em.data() + block_len - payload, kSha3Marker, sizeof(kSha3Marker));
  std::memcpy(em.data() + block_len - kDigestSize, digest.bytes.data(),
              kDigestSize);
  return em;
}

}  // namespace

RsaKeyPair RsaKeyPair::Generate(int modulus_bits, Rng& rng) {
  const BigInt e(65537);
  while (true) {
    BigInt p = BigInt::GeneratePrime(modulus_bits / 2, rng);
    BigInt q = BigInt::GeneratePrime(modulus_bits - modulus_bits / 2, rng);
    if (p == q) continue;
    BigInt n = BigInt::Mul(p, q);
    BigInt phi = BigInt::Mul(BigInt::Sub(p, BigInt(1)), BigInt::Sub(q, BigInt(1)));
    BigInt d = BigInt::ModInverse(e, phi);
    if (d.IsZero()) continue;  // gcd(e, phi) != 1; retry with new primes
    RsaKeyPair kp;
    kp.public_key = RsaPublicKey{n, e};
    kp.private_key = RsaPrivateKey{n, d};
    return kp;
  }
}

Bytes RsaSign(const RsaPrivateKey& key, const Digest& digest) {
  size_t k = (static_cast<size_t>(key.n.BitLength()) + 7) / 8;
  if (k < kRsaMinModulusBytes) return {};
  Bytes em = EncodeDigestBlock(digest, k);
  BigInt m = BigInt::FromBytes(em);
  BigInt s = BigInt::ModExp(m, key.d, key.n);
  return s.ToBytes(k);
}

bool RsaVerify(const RsaPublicKey& key, const Digest& digest, const Bytes& sig) {
  size_t k = key.ModulusBytes();
  if (k < kRsaMinModulusBytes || sig.size() != k) return false;
  BigInt s = BigInt::FromBytes(sig);
  if (s >= key.n) return false;
  BigInt m = BigInt::ModExp(s, key.e, key.n);
  Bytes em = m.ToBytes(k);
  Bytes expected = EncodeDigestBlock(digest, k);
  return em == expected;
}

}  // namespace imageproof::crypto
