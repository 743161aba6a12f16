#include "crypto/hasher.h"

#include <cstring>

namespace imageproof::crypto {

namespace {

// Largest message that always fits one sponge block after padding; pair
// hashes (prefix + two digests = 65 bytes) are far below it.
constexpr size_t kMaxSingleBlock = Sha3x4::kRate - 1;

// Shared scheduling for prefixed/unprefixed pair batches: messages are
// fixed-size single-block, so every Step completes everything it started.
void PairBatch(const uint8_t* prefix, const Digest* left, const Digest* right,
               Digest* out, size_t n) {
  const size_t prefix_len = prefix != nullptr ? 1 : 0;
  const size_t msg_len = prefix_len + 2 * kDigestSize;
  static_assert(1 + 2 * kDigestSize <= kMaxSingleBlock);
  if (n < 2) {
    for (size_t i = 0; i < n; ++i) {
      DigestBuilder b;
      if (prefix != nullptr) b.AddU8(*prefix);
      out[i] = b.AddDigest(left[i]).AddDigest(right[i]).Finalize();
    }
    return;
  }
  Sha3x4 eng;
  uint8_t buf[Sha3x4::kLanes][1 + 2 * kDigestSize];
  size_t i = 0;
  while (i < n) {
    const int lanes = static_cast<int>(n - i < 4 ? n - i : 4);
    for (int j = 0; j < lanes; ++j) {
      uint8_t* m = buf[j];
      if (prefix != nullptr) m[0] = *prefix;
      std::memcpy(m + prefix_len, left[i + j].bytes.data(), kDigestSize);
      std::memcpy(m + prefix_len + kDigestSize, right[i + j].bytes.data(),
                  kDigestSize);
      eng.Start(j, m, msg_len);
    }
    eng.Step();
    for (int j = 0; j < lanes; ++j) out[i + j] = eng.Take(j);
    i += lanes;
  }
}

// Shared scheduling for the variable-length batch forms: `msg(i)` yields
// message i; a lane that drains is refilled with the next pending message.
template <typename MsgAt>
void ScheduleBatch(const MsgAt& msg, Digest* out, size_t n) {
  if (n == 0) return;
  if (n == 1) {
    const BytesView m = msg(0);
    out[0] = Sha3(m.data, m.size);
    return;
  }
  Sha3x4 eng;
  size_t msg_of[Sha3x4::kLanes] = {0, 0, 0, 0};
  size_t next = 0;
  size_t pending = n;
  auto start = [&](int j) {
    const BytesView m = msg(next);
    msg_of[j] = next++;
    eng.Start(j, m.data, m.size);
  };
  for (int j = 0; j < Sha3x4::kLanes && next < n; ++j) start(j);
  while (pending > 0) {
    eng.Step();
    for (int j = 0; j < Sha3x4::kLanes; ++j) {
      if (!eng.done(j)) continue;
      out[msg_of[j]] = eng.Take(j);
      --pending;
      if (next < n) start(j);
    }
  }
}

}  // namespace

void HashBatch(const BytesView* in, Digest* out, size_t n) {
  ScheduleBatch([in](size_t i) { return in[i]; }, out, n);
}

void HashStridedBatch(const uint8_t* data, size_t len, Digest* out, size_t n) {
  ScheduleBatch(
      [data, len](size_t i) { return BytesView(data + i * len, len); }, out,
      n);
}

void HashPairBatch(const Digest* left, const Digest* right, Digest* out,
                   size_t n) {
  PairBatch(nullptr, left, right, out, n);
}

void HashPairBatch(uint8_t domain_prefix, const Digest* left,
                   const Digest* right, Digest* out, size_t n) {
  PairBatch(&domain_prefix, left, right, out, n);
}

}  // namespace imageproof::crypto
