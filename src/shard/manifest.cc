#include "shard/manifest.h"

#include "crypto/hasher.h"
#include "storage/file_io.h"

namespace imageproof::shard {

namespace {

// "MSP2" on the wire: the layout with the codebook root. The previous
// layout's "MSPI" manifests fail as a bad magic.
constexpr uint32_t kManifestMagic = 0x3250534D;

Status Corrupt(const char* what) {
  return Status::Corrupted(std::string("shard manifest: ") + what);
}

}  // namespace

crypto::Digest ShardManifest::ManifestDigest() const {
  crypto::DigestBuilder b;
  b.AddU32(kManifestMagic);
  b.AddU32(num_shards);
  b.AddU64(epoch);
  b.AddDigest(codebook_root);
  for (const ShardRoots& r : shards) {
    b.AddDigest(r.current);
    // Signatures are variable length and adjacent; explicit length prefixes
    // keep the preimage injective.
    b.AddU64(r.current_signature.size());
    b.AddBytes(r.current_signature);
    b.AddU8(r.has_prev ? 1 : 0);
    b.AddDigest(r.prev);
    b.AddU64(r.prev_signature.size());
    b.AddBytes(r.prev_signature);
  }
  return b.Finalize();
}

void ShardManifest::Sign(const crypto::RsaPrivateKey& owner_key) {
  signature = crypto::RsaSign(owner_key, ManifestDigest());
}

bool ShardManifest::VerifySignature(
    const crypto::RsaPublicKey& public_key) const {
  return crypto::RsaVerify(public_key, ManifestDigest(), signature);
}

Bytes ShardManifest::Serialize() const {
  ByteWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(num_shards);
  w.PutU64(epoch);
  crypto::PutDigest(w, codebook_root);
  for (const ShardRoots& r : shards) {
    crypto::PutDigest(w, r.current);
    w.PutBlob(r.current_signature);
    w.PutU8(r.has_prev ? 1 : 0);
    if (r.has_prev) {
      crypto::PutDigest(w, r.prev);
      w.PutBlob(r.prev_signature);
    }
  }
  w.PutBlob(signature);
  return w.Take();
}

Status ShardManifest::Deserialize(const Bytes& data, ShardManifest* out) {
  ByteReader r(data);
  Status s;
  uint32_t magic = 0;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kManifestMagic) return Corrupt("bad magic");
  if (!(s = r.GetU32(&out->num_shards)).ok()) return s;
  if (out->num_shards == 0) return Corrupt("zero shards");
  if (out->num_shards > kMaxShards) return Corrupt("absurd shard count");
  // Each shard entry costs at least a digest + two length bytes, so a count
  // beyond the remaining input is a lie; this bounds the allocation.
  if (out->num_shards > r.remaining() / crypto::kDigestSize) {
    return Corrupt("shard count exceeds input size");
  }
  if (!(s = r.GetU64(&out->epoch)).ok()) return s;
  if (!(s = crypto::GetDigest(r, &out->codebook_root)).ok()) return s;
  out->shards.clear();
  out->shards.resize(out->num_shards);
  for (ShardRoots& roots : out->shards) {
    if (!(s = crypto::GetDigest(r, &roots.current)).ok()) return s;
    if (!(s = r.GetBlob(&roots.current_signature)).ok()) return s;
    uint8_t has_prev = 0;
    if (!(s = r.GetU8(&has_prev)).ok()) return s;
    if (has_prev > 1) return Corrupt("bad bool encoding");
    roots.has_prev = has_prev != 0;
    if (roots.has_prev) {
      if (!(s = crypto::GetDigest(r, &roots.prev)).ok()) return s;
      if (!(s = r.GetBlob(&roots.prev_signature)).ok()) return s;
    }
  }
  if (!(s = r.GetBlob(&out->signature)).ok()) return s;
  if (!r.AtEnd()) return Corrupt("trailing bytes");
  return Status::Ok();
}

Status SaveManifest(const std::string& path, const ShardManifest& manifest) {
  return storage::AtomicWriteFile(path, manifest.Serialize());
}

Result<ShardManifest> LoadManifest(const std::string& path) {
  Bytes data;
  Status s = storage::ReadFileBytes(path, &data);
  if (!s.ok()) return s;
  ShardManifest out;
  s = ShardManifest::Deserialize(data, &out);
  if (!s.ok()) return s;
  return out;
}

}  // namespace imageproof::shard
