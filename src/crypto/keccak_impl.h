// Shared Keccak-f[1600] round function, generic over the lane type.
//
// The same 24-round body serves three instantiations:
//   * uint64_t      — the scalar permutation behind Sha3_256
//   * U64x2         — two interleaved states; plain integer code the
//                     compiler schedules as 2-way ILP (portable Sha3x4 path)
//   * V256 (AVX2)   — four interleaved states, one __m256i per Keccak lane
//                     (sha3_avx2.cc, compiled with -mavx2 and runtime-gated)
//
// All variants compute bit-identical states: vectorization only changes
// which independent sponges share an instruction, never the arithmetic.
//
// Internal header: include only from crypto/*.cc.

#ifndef IMAGEPROOF_CRYPTO_KECCAK_IMPL_H_
#define IMAGEPROOF_CRYPTO_KECCAK_IMPL_H_

#include <cstdint>

namespace imageproof::crypto::internal {

inline constexpr int kKeccakRounds = 24;

inline constexpr uint64_t kKeccakRoundConstants[kKeccakRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// Rho rotation amounts and pi destination indices along the single 24-step
// permutation cycle starting at lane 1; walking the cycle with one carried
// temp performs rho+pi in place, with no b[25] copy.
inline constexpr int kKeccakRotc[kKeccakRounds] = {
    1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
    27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44,
};
inline constexpr int kKeccakPiln[kKeccakRounds] = {
    10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
    15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1,
};

// Scalar lane ops.
inline uint64_t RotlL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
inline uint64_t AndNotL(uint64_t a, uint64_t b) { return ~a & b; }
inline uint64_t XorRc(uint64_t a, uint64_t rc) { return a ^ rc; }

// Two interleaved lanes; every op is elementwise, so the two permutations
// proceed in lockstep and the compiler interleaves their dependency chains.
struct U64x2 {
  uint64_t v0, v1;
};
inline U64x2 operator^(U64x2 a, U64x2 b) { return {a.v0 ^ b.v0, a.v1 ^ b.v1}; }
inline U64x2 RotlL(U64x2 a, int k) { return {RotlL(a.v0, k), RotlL(a.v1, k)}; }
inline U64x2 AndNotL(U64x2 a, U64x2 b) {
  return {~a.v0 & b.v0, ~a.v1 & b.v1};
}
inline U64x2 XorRc(U64x2 a, uint64_t rc) { return {a.v0 ^ rc, a.v1 ^ rc}; }

// One step of rho+pi along the permutation cycle, recursing through the
// rest at compile time: every state index is a constant, so the compiler
// can keep the 25 lanes in registers instead of an indexed stack array.
template <int I, typename L>
inline void RhoPiStep(L a[25], L& t) {
  if constexpr (I < kKeccakRounds) {
    constexpr int j = kKeccakPiln[I];
    L tmp = a[j];
    a[j] = RotlL(t, kKeccakRotc[I]);
    t = tmp;
    RhoPiStep<I + 1>(a, t);
  }
}

// Chi on the row starting at lane Y.
template <int Y, typename L>
inline void ChiRow(L a[25]) {
  L b0 = a[Y], b1 = a[Y + 1], b2 = a[Y + 2], b3 = a[Y + 3], b4 = a[Y + 4];
  a[Y] = b0 ^ AndNotL(b1, b2);
  a[Y + 1] = b1 ^ AndNotL(b2, b3);
  a[Y + 2] = b2 ^ AndNotL(b3, b4);
  a[Y + 3] = b3 ^ AndNotL(b4, b0);
  a[Y + 4] = b4 ^ AndNotL(b0, b1);
}

// The full permutation. Theta, rho+pi and chi are unrolled at compile
// time; rho+pi runs in place.
template <typename L>
inline void KeccakPermute(L a[25]) {
  for (int round = 0; round < kKeccakRounds; ++round) {
    // Theta.
    L c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    L c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    L c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    L c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    L c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    L d0 = c4 ^ RotlL(c1, 1);
    L d1 = c0 ^ RotlL(c2, 1);
    L d2 = c1 ^ RotlL(c3, 1);
    L d3 = c2 ^ RotlL(c4, 1);
    L d4 = c3 ^ RotlL(c0, 1);
    a[0] = a[0] ^ d0;
    a[5] = a[5] ^ d0;
    a[10] = a[10] ^ d0;
    a[15] = a[15] ^ d0;
    a[20] = a[20] ^ d0;
    a[1] = a[1] ^ d1;
    a[6] = a[6] ^ d1;
    a[11] = a[11] ^ d1;
    a[16] = a[16] ^ d1;
    a[21] = a[21] ^ d1;
    a[2] = a[2] ^ d2;
    a[7] = a[7] ^ d2;
    a[12] = a[12] ^ d2;
    a[17] = a[17] ^ d2;
    a[22] = a[22] ^ d2;
    a[3] = a[3] ^ d3;
    a[8] = a[8] ^ d3;
    a[13] = a[13] ^ d3;
    a[18] = a[18] ^ d3;
    a[23] = a[23] ^ d3;
    a[4] = a[4] ^ d4;
    a[9] = a[9] ^ d4;
    a[14] = a[14] ^ d4;
    a[19] = a[19] ^ d4;
    a[24] = a[24] ^ d4;

    // Rho and pi, in place along the permutation cycle.
    L t = a[1];
    RhoPiStep<0>(a, t);

    // Chi, row by row with five temporaries.
    ChiRow<0>(a);
    ChiRow<5>(a);
    ChiRow<10>(a);
    ChiRow<15>(a);
    ChiRow<20>(a);

    // Iota.
    a[0] = XorRc(a[0], kKeccakRoundConstants[round]);
  }
}

// Little-endian lane load/store shared by the absorb/squeeze paths.
inline uint64_t LoadLe64(const uint8_t* p) {
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
  uint64_t v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
#else
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
#endif
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
  __builtin_memcpy(p, &v, sizeof(v));
#else
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
#endif
}

#if defined(IMAGEPROOF_SHA3_AVX2)
// Defined in sha3_avx2.cc (compiled with -mavx2); callable only after a
// runtime AVX2 check.
void KeccakF4Avx2(uint64_t state[25][4]);
#endif

}  // namespace imageproof::crypto::internal

#endif  // IMAGEPROOF_CRYPTO_KECCAK_IMPL_H_
