#include "shard/composite.h"

#include "net/wire.h"
#include "shard/manifest.h"

namespace imageproof::shard {

namespace {
constexpr uint32_t kCompositeMagic = 0x4950434F;  // "OCPI" on the wire
}  // namespace

Bytes CompositeVO::Serialize() const {
  ByteWriter w;
  w.PutU32(kCompositeMagic);
  w.PutU32(net::kWireVersionComposite);
  w.PutBlob(manifest_bytes);
  bovw.Serialize(w);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const CompositeEntry& e : entries) {
    w.PutU32(e.shard_id);
    w.PutU64(e.snapshot_version);
    w.PutBlob(e.root_signature);
    w.PutBlob(e.vo_bytes);
  }
  return w.Take();
}

Status CompositeVO::Deserialize(const Bytes& data, CompositeVO* out) {
  ByteReader r(data);
  Status s;
  uint32_t magic = 0;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kCompositeMagic) {
    return Status::Corrupted("composite vo: bad magic");
  }
  // A version-2 composite continues with its manifest's length prefix and
  // the manifest's own magic, which never read as a small version number.
  uint32_t version = 0;
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != net::kWireVersionComposite) {
    return Status::Corrupted("composite vo: unsupported version " +
                             std::to_string(version));
  }
  if (!(s = r.GetBlob(&out->manifest_bytes)).ok()) return s;
  if (!(s = core::BovwSection::Deserialize(r, &out->bovw)).ok()) return s;
  uint32_t count = 0;
  if (!(s = r.GetU32(&count)).ok()) return s;
  if (count == 0) return Status::Corrupted("composite vo: zero entries");
  if (count > kMaxShards) {
    return Status::Corrupted("composite vo: absurd entry count");
  }
  // Each entry occupies at least its fixed header (4 + 8 bytes) plus two
  // blob length prefixes; cap the allocation by what is actually present.
  if (count > r.remaining() / 12) {
    return Status::Corrupted("composite vo: entry count exceeds input size");
  }
  out->entries.clear();
  out->entries.resize(count);
  for (CompositeEntry& e : out->entries) {
    if (!(s = r.GetU32(&e.shard_id)).ok()) return s;
    if (!(s = r.GetU64(&e.snapshot_version)).ok()) return s;
    if (!(s = r.GetBlob(&e.root_signature)).ok()) return s;
    if (!(s = r.GetBlob(&e.vo_bytes)).ok()) return s;
  }
  if (!r.AtEnd()) return Status::Corrupted("composite vo: trailing bytes");
  return Status::Ok();
}

}  // namespace imageproof::shard
