// RSA signatures over the from-scratch bignum layer.
//
// The image owner signs (a) each image digest per Eq. (15) and (b) the root
// digest of the ImageProof ADS. Any EUF-CMA signature scheme works; we use
// textbook-keygen RSA with a PKCS#1-v1.5-style deterministic encoding of a
// SHA3-256 digest. Key sizes are caller-chosen (tests and perfbench use
// 512-bit keys; the default core::Config uses 1024).

#ifndef IMAGEPROOF_CRYPTO_RSA_H_
#define IMAGEPROOF_CRYPTO_RSA_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/bignum.h"
#include "crypto/digest.h"

namespace imageproof::crypto {

// Smallest modulus the signature encoding fits in: 0x00 0x01 0x00, a 4-byte
// hash marker and the 32-byte digest. Shorter keys cannot sign or verify.
inline constexpr size_t kRsaMinModulusBytes = 3 + 4 + kDigestSize;

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent
  // Length of the modulus (and of every signature) in bytes.
  size_t ModulusBytes() const { return (static_cast<size_t>(n.BitLength()) + 7) / 8; }
};

struct RsaPrivateKey {
  BigInt n;
  BigInt d;  // private exponent
};

struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;

  // Generates a fresh key pair with an n of `modulus_bits` bits (e = 65537).
  static RsaKeyPair Generate(int modulus_bits, Rng& rng);
};

// Signs a 32-byte digest. The signature is ModulusBytes() long, or empty
// (which no verifier accepts) when the modulus is under kRsaMinModulusBytes.
Bytes RsaSign(const RsaPrivateKey& key, const Digest& digest);

// Verifies a signature over a 32-byte digest; false for a modulus under
// kRsaMinModulusBytes.
bool RsaVerify(const RsaPublicKey& key, const Digest& digest, const Bytes& sig);

// Abstract signing interfaces so the core scheme is signature-agnostic.
class Signer {
 public:
  virtual ~Signer() = default;
  virtual Bytes Sign(const Digest& digest) const = 0;
};

class Verifier {
 public:
  virtual ~Verifier() = default;
  virtual bool Verify(const Digest& digest, const Bytes& signature) const = 0;
};

class RsaSigner : public Signer {
 public:
  explicit RsaSigner(RsaPrivateKey key) : key_(std::move(key)) {}
  Bytes Sign(const Digest& digest) const override { return RsaSign(key_, digest); }

 private:
  RsaPrivateKey key_;
};

class RsaVerifier : public Verifier {
 public:
  explicit RsaVerifier(RsaPublicKey key) : key_(std::move(key)) {}
  bool Verify(const Digest& digest, const Bytes& signature) const override {
    return RsaVerify(key_, digest, signature);
  }

 private:
  RsaPublicKey key_;
};

}  // namespace imageproof::crypto

#endif  // IMAGEPROOF_CRYPTO_RSA_H_
