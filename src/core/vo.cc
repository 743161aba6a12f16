#include "core/vo.h"

#include "crypto/hasher.h"

namespace imageproof::core {

size_t BovwSection::ProofBytes() const {
  size_t n = reveal_section.size() + thresholds_sq.size() * sizeof(double);
  for (const Bytes& t : tree_vos) n += t.size();
  return n;
}

void BovwSection::Serialize(ByteWriter& w) const {
  w.PutVarint(thresholds_sq.size());
  for (double t : thresholds_sq) w.PutF64(t);
  w.PutBlob(reveal_section);
  w.PutVarint(tree_vos.size());
  for (const Bytes& t : tree_vos) w.PutBlob(t);
}

// Every count read below is capped against the bytes actually remaining
// (each element has a known minimum wire size) BEFORE the resize, so an
// adversarial length prefix can never drive an allocation larger than the
// input itself — a truncated, spliced, or bit-flipped VO costs at most one
// linear parse and yields kCorrupted.
Status BovwSection::Deserialize(ByteReader& r, BovwSection* out) {
  uint64_t n;
  Status s = r.GetVarint(&n);
  if (!s.ok()) return s;
  if (n > r.remaining() / 8) {
    return Status::Corrupted("vo: threshold count exceeds input size");
  }
  out->thresholds_sq.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!(s = r.GetF64(&out->thresholds_sq[i])).ok()) return s;
  }
  if (!(s = r.GetBlob(&out->reveal_section)).ok()) return s;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > 256) return Status::Corrupted("vo: absurd tree count");
  if (n > r.remaining()) {  // each tree VO is at least a 1-byte length
    return Status::Corrupted("vo: tree count exceeds input size");
  }
  out->tree_vos.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!(s = r.GetBlob(&out->tree_vos[i])).ok()) return s;
  }
  return Status::Ok();
}

BovwSection QueryVO::TakeBovwSection() {
  BovwSection& section = *this;
  BovwSection out = std::move(section);
  section = BovwSection();
  return out;
}

size_t QueryVO::TotalBytes() const {
  size_t n = ProofBytes();
  for (const ResultImage& r : results) n += r.data.size();
  return n;
}

size_t QueryVO::ProofBytes() const {
  size_t n = BovwSection::ProofBytes() + inv_vo.size();
  for (const ResultImage& r : results) n += r.signature.size();
  return n + list_proof.size() * crypto::kDigestSize;
}

Bytes QueryVO::Serialize() const {
  ByteWriter w;
  BovwSection::Serialize(w);
  w.PutBlob(inv_vo);
  w.PutVarint(results.size());
  for (const ResultImage& r : results) {
    w.PutVarint(r.id);
    w.PutBlob(r.data);
    w.PutBlob(r.signature);
  }
  if (!list_proof.empty()) {
    w.PutVarint(list_proof.size());
    for (const crypto::Digest& d : list_proof) crypto::PutDigest(w, d);
  }
  return w.Take();
}

// Same allocation discipline as BovwSection::Deserialize.
Status QueryVO::Deserialize(const Bytes& data, QueryVO* out) {
  ByteReader r(data);
  Status s = BovwSection::Deserialize(r, out);
  if (!s.ok()) return s;
  if (!(s = r.GetBlob(&out->inv_vo)).ok()) return s;
  uint64_t n;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > r.remaining() / 3) {  // id + two length prefixes minimum
    return Status::Corrupted("vo: result count exceeds input size");
  }
  out->results.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    if (!(s = r.GetVarint(&id)).ok()) return s;
    out->results[i].id = id;
    if (!(s = r.GetBlob(&out->results[i].data)).ok()) return s;
    if (!(s = r.GetBlob(&out->results[i].signature)).ok()) return s;
  }
  out->list_proof.clear();
  if (!r.AtEnd()) {
    // Present only when non-empty: a zero count would be a second encoding.
    if (!(s = r.GetVarint(&n)).ok()) return s;
    if (n == 0 || n > r.remaining() / crypto::kDigestSize) {
      return Status::Corrupted("vo: bad list proof count");
    }
    out->list_proof.resize(n);
    for (crypto::Digest& d : out->list_proof) {
      if (!(s = crypto::GetDigest(r, &d)).ok()) return s;
    }
  }
  if (!r.AtEnd()) return Status::Corrupted("vo: trailing bytes");
  return Status::Ok();
}

}  // namespace imageproof::core
