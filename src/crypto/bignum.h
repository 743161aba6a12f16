// Arbitrary-precision unsigned integers, from scratch, sized for RSA.
//
// Representation: little-endian vector of 32-bit limbs with no trailing zero
// limbs (zero is the empty vector). 32-bit limbs keep Knuth Algorithm D
// division simple with 64-bit intermediates. ModExp with an odd modulus
// (every RSA and Miller-Rabin use) multiplies and squares in Montgomery form
// on 64-bit limbs instead of a multiply-then-divide per step. Nothing here is
// constant-time.

#ifndef IMAGEPROOF_CRYPTO_BIGNUM_H_
#define IMAGEPROOF_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace imageproof::crypto {

class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(uint64_t v);

  // Big-endian byte import/export (the usual cryptographic convention).
  static BigInt FromBytes(const uint8_t* data, size_t n);
  static BigInt FromBytes(const Bytes& b) { return FromBytes(b.data(), b.size()); }
  // Exports exactly `n` big-endian bytes (value must fit), or minimal length
  // when n == 0.
  Bytes ToBytes(size_t n = 0) const;

  static BigInt FromHex(const std::string& hex);
  std::string ToHex() const;

  // Uniformly random value with exactly `bits` bits (top bit set).
  static BigInt RandomWithBits(int bits, Rng& rng);
  // Uniformly random value in [0, bound).
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  int BitLength() const;
  bool Bit(int i) const;
  uint64_t LowU64() const;

  // Comparison: -1, 0, +1.
  static int Compare(const BigInt& a, const BigInt& b);
  bool operator==(const BigInt& o) const { return Compare(*this, o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(*this, o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(*this, o) >= 0; }

  static BigInt Add(const BigInt& a, const BigInt& b);
  // Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  // Knuth Algorithm D. b must be nonzero.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);
  static BigInt Mod(const BigInt& a, const BigInt& m);

  static BigInt ShiftLeft(const BigInt& a, int bits);
  static BigInt ShiftRight(const BigInt& a, int bits);

  // (base^exp) mod m by a left-to-right binary scan of exp: Montgomery
  // multiplication when m is odd, multiply-then-Mod when it is even. m must
  // be nonzero.
  static BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);
  // Modular inverse via extended Euclid; returns zero if gcd(a, m) != 1.
  static BigInt ModInverse(const BigInt& a, const BigInt& m);
  static BigInt Gcd(BigInt a, BigInt b);

  // Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const BigInt& n, int rounds, Rng& rng);
  // Generates a random prime with exactly `bits` bits.
  static BigInt GeneratePrime(int bits, Rng& rng);

 private:
  void Trim();

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zeros
};

}  // namespace imageproof::crypto

#endif  // IMAGEPROOF_CRYPTO_BIGNUM_H_
