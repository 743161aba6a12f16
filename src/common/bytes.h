// Canonical binary serialization used for every byte stream that is hashed,
// signed, or shipped inside a verification object (VO).
//
// Both the service provider and the client must derive bit-identical byte
// streams from logically identical values, so all encodings here are fixed:
//   * integers        little-endian fixed width, or LEB128 varints
//   * floating point  IEEE-754 bit pattern, little-endian (doubles/floats are
//                     never hashed via textual formatting)
//   * strings/blobs   varint length prefix + raw bytes
//
// ByteWriter appends; ByteReader consumes and reports malformed input through
// Status instead of crashing, because VOs arrive from an untrusted party.

#ifndef IMAGEPROOF_COMMON_BYTES_H_
#define IMAGEPROOF_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace imageproof {

using Bytes = std::vector<uint8_t>;

// Non-owning view of a byte range, for APIs that take many inputs at once
// (the batch digest API in crypto/hasher.h) without forcing a copy into a
// container. The viewed bytes must outlive the view.
struct BytesView {
  const uint8_t* data = nullptr;
  size_t size = 0;

  BytesView() = default;
  BytesView(const uint8_t* d, size_t n) : data(d), size(n) {}
  BytesView(const Bytes& b) : data(b.data()), size(b.size()) {}  // NOLINT
};

// Canonical little-endian stores into caller-owned buffers: the same bytes
// ByteWriter and crypto::DigestBuilder emit, for preimages assembled in
// place before a batch digest.
inline void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline void StoreF32(uint8_t* p, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU32(p, bits);
}
inline void StoreF64(uint8_t* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU64(p, bits);
}

// Appends canonical encodings to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  // Unsigned LEB128; at most 10 bytes for a 64-bit value.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  // IEEE-754 bit pattern. This is the only sanctioned way to serialize a
  // float that participates in a digest.
  void PutF64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }

  void PutBytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  void PutBytes(const Bytes& b) { PutBytes(b.data(), b.size()); }

  // Length-prefixed blob.
  void PutBlob(const Bytes& b) {
    PutVarint(b.size());
    PutBytes(b);
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Consumes canonical encodings; every getter validates remaining length.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), end_(data + n) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - data_); }
  bool AtEnd() const { return data_ == end_; }

  // Raw cursor access for block decoders (common/varint_kernels.h) that
  // consume a validated run of bytes at SIMD width. Callers must pair
  // data() with Skip() and never read past remaining().
  const uint8_t* data() const { return data_; }
  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    data_ += n;
    return Status::Ok();
  }

  Status GetU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = *data_++;
    return Status::Ok();
  }

  Status GetU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[i]) << (8 * i);
    data_ += 4;
    *out = v;
    return Status::Ok();
  }

  Status GetU64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[i]) << (8 * i);
    data_ += 8;
    *out = v;
    return Status::Ok();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (AtEnd()) return Truncated("varint");
      if (shift >= 64) {
        return Status::Corrupted("bytes: varint overflows 64 bits");
      }
      uint8_t b = *data_++;
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
    }
    *out = v;
    return Status::Ok();
  }

  Status GetF64(double* out) {
    uint64_t bits = 0;
    Status s = GetU64(&bits);
    if (!s.ok()) return s;
    std::memcpy(out, &bits, sizeof(bits));
    return Status::Ok();
  }

  Status GetF32(float* out) {
    uint32_t bits = 0;
    Status s = GetU32(&bits);
    if (!s.ok()) return s;
    std::memcpy(out, &bits, sizeof(bits));
    return Status::Ok();
  }

  Status GetBytes(size_t n, Bytes* out) {
    if (remaining() < n) return Truncated("bytes");
    out->assign(data_, data_ + n);
    data_ += n;
    return Status::Ok();
  }

  // Copies the next `n` bytes into caller-owned storage (no allocation).
  Status GetBytes(size_t n, uint8_t* out) {
    if (remaining() < n) return Truncated("bytes");
    std::memcpy(out, data_, n);
    data_ += n;
    return Status::Ok();
  }

  Status GetBlob(Bytes* out) {
    uint64_t n = 0;
    Status s = GetVarint(&n);
    if (!s.ok()) return s;
    if (n > remaining()) return Truncated("blob");
    return GetBytes(static_cast<size_t>(n), out);
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    Status s = GetVarint(&n);
    if (!s.ok()) return s;
    if (n > remaining()) return Truncated("string");
    out->assign(reinterpret_cast<const char*>(data_), static_cast<size_t>(n));
    data_ += n;
    return Status::Ok();
  }

 private:
  // Malformed untrusted input is kCorrupted: callers distinguish "the bytes
  // are bad" (reject/retry) from a generic failed check.
  static Status Truncated(const char* what) {
    return Status::Corrupted(std::string("bytes: truncated input reading ") +
                             what);
  }

  const uint8_t* data_;
  const uint8_t* end_;
};

}  // namespace imageproof

#endif  // IMAGEPROOF_COMMON_BYTES_H_
