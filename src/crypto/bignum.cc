#include "crypto/bignum.h"

#include <algorithm>
#include <cstring>

namespace imageproof::crypto {

namespace {

// Small primes for fast trial-division filtering during prime generation.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269,
    271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353,
};

using u128 = unsigned __int128;

// Packs little-endian 32-bit limbs into 64-bit limbs; `out` must already be
// zeroed and hold at least (v.size() + 1) / 2 limbs.
void ToLimbs64(const std::vector<uint32_t>& v, uint64_t* out) {
  for (size_t i = 0; i < v.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(v[i]) << (32 * (i % 2));
  }
}

// -m0^-1 mod 2^64 for odd m0. x = m0 is an inverse mod 2^3; each Newton step
// x *= 2 - m0 * x doubles the number of correct low bits (3 -> 96).
uint64_t NegInverse64(uint64_t m0) {
  uint64_t x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return ~x + 1;
}

// out = v mod m for v = top * 2^(64n) + v[0..n) < 2m: one conditional
// subtraction.
void ReduceOnce(const uint64_t* v, uint64_t top, const uint64_t* m, size_t n,
                uint64_t* out) {
  bool ge = top != 0;
  if (!ge) {
    ge = true;  // equal counts as >=
    for (size_t j = n; j-- > 0;) {
      if (v[j] != m[j]) {
        ge = v[j] > m[j];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(v, v + n, out);
    return;
  }
  uint64_t borrow = 0;
  for (size_t j = 0; j < n; ++j) {
    u128 diff = static_cast<u128>(v[j]) - m[j] - borrow;
    out[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
}

// Montgomery product out = a * b * 2^(-64n) mod m by coarsely integrated
// operand scanning (CIOS). a, b < m; m odd with n limbs; m_inv =
// -m^-1 mod 2^64; t is n + 2 limbs of scratch. `out` may alias a or b.
void MontMul(const uint64_t* a, const uint64_t* b, const uint64_t* m,
             uint64_t m_inv, size_t n, uint64_t* t, uint64_t* out) {
  std::fill(t, t + n + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
    for (size_t j = 0; j < n; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<uint64_t>(top);
    t[n + 1] = static_cast<uint64_t>(top >> 64);

    // t = (t + q * m) / 2^64, with q chosen so the low limb cancels.
    const uint64_t q = t[0] * m_inv;
    u128 cur = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    top = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<uint64_t>(top);
    t[n] = t[n + 1] + static_cast<uint64_t>(top >> 64);
  }

  ReduceOnce(t, t[n], m, n, out);
}

// out = r * r * 2^(-64n) mod m for r < m: the n(n + 1) / 2 products of the
// square (cross products once, doubled, plus the diagonal), then n rounds of
// Montgomery reduction. t is 2n limbs of scratch; `out` may alias r.
void MontSqr(const uint64_t* r, const uint64_t* m, uint64_t m_inv, size_t n,
             uint64_t* t, uint64_t* out) {
  std::fill(t, t + 2 * n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t carry = 0;
    for (size_t j = i + 1; j < n; ++j) {
      u128 cur = static_cast<u128>(r[i]) * r[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    t[i + n] = carry;
  }
  uint64_t shifted_out = 0;
  for (size_t k = 0; k < 2 * n; ++k) {
    const uint64_t v = t[k];
    t[k] = (v << 1) | shifted_out;
    shifted_out = v >> 63;
  }
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const u128 sq = static_cast<u128>(r[i]) * r[i];
    u128 lo = static_cast<u128>(t[2 * i]) + static_cast<uint64_t>(sq) + carry;
    t[2 * i] = static_cast<uint64_t>(lo);
    u128 hi = static_cast<u128>(t[2 * i + 1]) + static_cast<uint64_t>(sq >> 64) +
              static_cast<uint64_t>(lo >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(hi);
    carry = static_cast<uint64_t>(hi >> 64);
  }

  // Round i clears limb i; the carry out of limb i + n rides into the next.
  uint64_t top = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t q = t[i] * m_inv;
    carry = 0;
    for (size_t j = 0; j < n; ++j) {
      u128 cur = static_cast<u128>(q) * m[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[i + n]) + carry + top;
    t[i + n] = static_cast<uint64_t>(cur);
    top = static_cast<uint64_t>(cur >> 64);
  }
  ReduceOnce(t + n, top, m, n, out);
}

}  // namespace

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromBytes(const uint8_t* data, size_t n) {
  BigInt out;
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    // data[0] is the most significant byte.
    size_t byte_index = n - 1 - i;  // position from the LSB
    out.limbs_[byte_index / 4] |= static_cast<uint32_t>(data[i])
                                  << (8 * (byte_index % 4));
  }
  out.Trim();
  return out;
}

Bytes BigInt::ToBytes(size_t n) const {
  size_t min_len = (static_cast<size_t>(BitLength()) + 7) / 8;
  if (n == 0) n = std::max<size_t>(min_len, 1);
  Bytes out(n, 0);
  for (size_t i = 0; i < n; ++i) {
    size_t byte_index = i;  // from LSB
    size_t limb = byte_index / 4;
    if (limb >= limbs_.size()) break;
    out[n - 1 - i] = static_cast<uint8_t>(limbs_[limb] >> (8 * (byte_index % 4)));
  }
  return out;
}

BigInt BigInt::FromHex(const std::string& hex) {
  BigInt out;
  for (char c : hex) {
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      continue;  // permit separators in test literals
    }
    out = ShiftLeft(out, 4);
    out = Add(out, BigInt(nibble));
  }
  return out;
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      s.push_back(kHex[(limbs_[i] >> shift) & 0xF]);
    }
  }
  size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

BigInt BigInt::RandomWithBits(int bits, Rng& rng) {
  BigInt out;
  int limbs = (bits + 31) / 32;
  out.limbs_.resize(limbs);
  for (int i = 0; i < limbs; ++i) {
    out.limbs_[i] = static_cast<uint32_t>(rng.NextU64());
  }
  int top_bit = (bits - 1) % 32;
  out.limbs_.back() &= (top_bit == 31) ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
  out.limbs_.back() |= (1u << top_bit);
  out.Trim();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  int bits = bound.BitLength();
  while (true) {
    BigInt candidate;
    int limbs = (bits + 31) / 32;
    candidate.limbs_.resize(limbs);
    for (int i = 0; i < limbs; ++i) {
      candidate.limbs_[i] = static_cast<uint32_t>(rng.NextU64());
    }
    int top_bit = (bits - 1) % 32;
    candidate.limbs_.back() &=
        (top_bit == 31) ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
    candidate.Trim();
    if (Compare(candidate, bound) < 0) return candidate;
  }
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  int bits = 32 * static_cast<int>(limbs_.size() - 1);
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(int i) const {
  size_t limb = static_cast<size_t>(i) / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigInt::LowU64() const {
  uint64_t v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Trim();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftLeft(const BigInt& a, int bits) {
  if (a.IsZero() || bits == 0) return bits == 0 ? a : BigInt();
  int limb_shift = bits / 32;
  int bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftRight(const BigInt& a, int bits) {
  int limb_shift = bits / 32;
  int bit_shift = bits % 32;
  if (static_cast<size_t>(limb_shift) >= a.limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  // Single-limb divisor fast path.
  if (b.limbs_.size() == 1) {
    uint64_t d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.Trim();
    if (quotient) *quotient = std::move(q);
    if (remainder) *remainder = BigInt(rem);
    return;
  }

  if (Compare(a, b) < 0) {
    if (quotient) *quotient = BigInt();
    if (remainder) *remainder = a;
    return;
  }

  // Knuth Algorithm D with 32-bit limbs. Normalize so the divisor's top limb
  // has its high bit set.
  int shift = 0;
  uint32_t top = b.limbs_.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  BigInt u = ShiftLeft(a, shift);
  BigInt v = ShiftLeft(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m + n + 1 limbs

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  uint64_t v_top = v.limbs_[n - 1];
  uint64_t v_second = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v_top;
    uint64_t rhat = numerator % v_top;
    while (qhat >= (1ULL << 32) ||
           qhat * v_second > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= (1ULL << 32)) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t sub = static_cast<int64_t>(u.limbs_[i + j]) -
                    static_cast<int64_t>(p & 0xFFFFFFFFu) - borrow;
      if (sub < 0) {
        sub += (1LL << 32);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(sub);
    }
    int64_t sub = static_cast<int64_t>(u.limbs_[j + n]) -
                  static_cast<int64_t>(carry) - borrow;
    bool negative = sub < 0;
    u.limbs_[j + n] = static_cast<uint32_t>(sub);

    if (negative) {
      // qhat was one too large; add v back.
      --qhat;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum =
            static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        carry2 = sum >> 32;
      }
      u.limbs_[j + n] += static_cast<uint32_t>(carry2);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Trim();
  if (quotient) *quotient = std::move(q);
  if (remainder) {
    u.limbs_.resize(n);
    u.Trim();
    *remainder = ShiftRight(u, shift);
  }
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigInt BigInt::ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (!m.IsOdd()) {
    // Montgomery reduction needs an odd modulus; even ones take the plain
    // square-and-multiply loop.
    BigInt result(1);
    BigInt b = Mod(base, m);
    for (int i = exp.BitLength() - 1; i >= 0; --i) {
      result = Mod(Mul(result, result), m);
      if (exp.Bit(i)) result = Mod(Mul(result, b), m);
    }
    return result;
  }
  if (exp.IsZero()) return Mod(BigInt(1), m);

  // Scratch for the whole exponentiation, so the exponent loop allocates
  // nothing: modulus, accumulator, base, and 2n + 1 limbs for MontSqr (2n)
  // and MontMul (n + 2).
  const size_t n = (m.limbs_.size() + 1) / 2;
  std::vector<uint64_t> scratch(5 * n + 1, 0);
  uint64_t* mod = scratch.data();
  uint64_t* acc = mod + n;
  uint64_t* b = acc + n;
  uint64_t* t = b + n;
  ToLimbs64(m.limbs_, mod);
  const uint64_t m_inv = NegInverse64(mod[0]);

  // b = base * R mod m with R = 2^(64n); the scan starts at the top set bit
  // of exp, so the accumulator starts as b.
  ToLimbs64(Mod(ShiftLeft(base, static_cast<int>(64 * n)), m).limbs_, b);
  std::copy(b, b + n, acc);
  for (int i = exp.BitLength() - 2; i >= 0; --i) {
    MontSqr(acc, mod, m_inv, n, t, acc);
    if (exp.Bit(i)) MontMul(acc, b, mod, m_inv, n, t, acc);
  }

  // Leave Montgomery form: acc * 1 * R^-1.
  std::fill(b, b + n, 0);
  b[0] = 1;
  MontMul(acc, b, mod, m_inv, n, t, acc);
  BigInt result;
  result.limbs_.resize(2 * n);
  for (size_t i = 0; i < n; ++i) {
    result.limbs_[2 * i] = static_cast<uint32_t>(acc[i]);
    result.limbs_[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
  }
  result.Trim();
  return result;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  while (!b.IsZero()) {
    BigInt r = Mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking only the coefficient of `a`, with signs handled
  // via a parallel bool because BigInt is unsigned.
  BigInt r0 = m, r1 = Mod(a, m);
  BigInt t0, t1(1);
  bool neg0 = false, neg1 = false;
  while (!r1.IsZero()) {
    BigInt q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 (signed).
    BigInt qt = Mul(q, t1);
    BigInt t2;
    bool neg2;
    if (neg0 == neg1) {
      if (Compare(t0, qt) >= 0) {
        t2 = Sub(t0, qt);
        neg2 = neg0;
      } else {
        t2 = Sub(qt, t0);
        neg2 = !neg0;
      }
    } else {
      t2 = Add(t0, qt);
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    neg0 = neg1;
    t1 = std::move(t2);
    neg1 = neg2;
  }
  if (Compare(r0, BigInt(1)) != 0) return BigInt();  // not invertible
  if (neg0) return Sub(m, Mod(t0, m));
  return Mod(t0, m);
}

bool BigInt::IsProbablePrime(const BigInt& n, int rounds, Rng& rng) {
  if (n.BitLength() <= 1) return false;
  if (!n.IsOdd()) return n.LowU64() == 2;
  for (uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (Compare(n, bp) == 0) return true;
    BigInt r = Mod(n, bp);
    if (r.IsZero()) return false;
  }

  // n - 1 = d * 2^s with d odd.
  BigInt n_minus_1 = Sub(n, BigInt(1));
  BigInt d = n_minus_1;
  int s = 0;
  while (!d.IsOdd()) {
    d = ShiftRight(d, 1);
    ++s;
  }

  for (int round = 0; round < rounds; ++round) {
    BigInt a = Add(BigInt(2), RandomBelow(Sub(n, BigInt(3)), rng));
    BigInt x = ModExp(a, d, n);
    if (Compare(x, BigInt(1)) == 0 || Compare(x, n_minus_1) == 0) continue;
    bool witness = true;
    for (int i = 0; i < s - 1; ++i) {
      x = Mod(Mul(x, x), n);
      if (Compare(x, n_minus_1) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt BigInt::GeneratePrime(int bits, Rng& rng) {
  while (true) {
    BigInt candidate = RandomWithBits(bits, rng);
    if (!candidate.IsOdd()) candidate = Add(candidate, BigInt(1));
    // March forward over odd numbers from the random starting point.
    for (int step = 0; step < 1000; ++step) {
      if (IsProbablePrime(candidate, 24, rng)) return candidate;
      candidate = Add(candidate, BigInt(2));
      if (candidate.BitLength() != bits) break;  // overflowed the width
    }
  }
}

}  // namespace imageproof::crypto
