// Signed shard manifest: the trust anchor of sharded scatter-gather serving.
//
// A sharded deployment splits the corpus across N shards, each its own full
// ImageProof ADS signed by the one owner keypair. That sharing is exactly
// what makes naive composition unsound: every shard's root signature
// verifies under the same public key, so without further binding a
// malicious coordinator could answer shard 3's slot with shard 1's (valid!)
// VO, drop a shard, or serve one shard from a stale epoch. The manifest is
// the owner-signed statement that closes those holes:
//
//   * the partition: `num_shards`, with the fixed placement rule
//     shard(id) = id mod num_shards — so a verifier can check that every
//     result id actually belongs to the shard that claims it;
//   * the codebook root: every shard shares one codebook MRKD forest
//     (ShardPlanner::Build), committed here once, whose replay a composite
//     VO's single BoVW section must reconstruct;
//   * per shard, the root digest set {current, prev}: the split root
//     H(codebook root, list root) a VO replay must reconstruct for that
//     shard's slot (core::SplitRootDigest). `prev` (when present)
//     is the root of the epoch immediately before the shard's latest
//     update, giving in-flight queries a one-epoch freshness window — a
//     fan-out racing an epoch swap may legitimately carry one shard's
//     response from the just-replaced root, and the verifier accepts it
//     without accepting arbitrary rollback (anything older than one epoch
//     is rejected);
//   * the manifest epoch, bumped on every re-sign, and the owner signature
//     over all of it.
//
// Freshness caveat (same as the unsharded root signature): a signature
// cannot expire, so an SP can replay the latest manifest it has rather than
// the latest that exists. The guarantee is "consistent with SOME owner-
// signed deployment state, uniform across shards within one epoch window",
// exactly the paper's freshness model extended to N roots. DESIGN.md §15.

#ifndef IMAGEPROOF_SHARD_MANIFEST_H_
#define IMAGEPROOF_SHARD_MANIFEST_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"

namespace imageproof::shard {

// Sanity cap for the hardened decoder; far above any deployment this
// library targets, small enough that a hostile count cannot balloon an
// allocation.
inline constexpr uint32_t kMaxShards = 4096;

// Root digest set of one shard: the current epoch's root plus (after the
// first update) the immediately preceding one. Signatures ride along so a
// serving layer can be reconstructed from the manifest alone — each is the
// owner's RSA signature over the matching digest, redundant with but
// independently checkable against the digest itself.
struct ShardRoots {
  crypto::Digest current = crypto::Digest::Zero();
  Bytes current_signature;
  bool has_prev = false;
  crypto::Digest prev = crypto::Digest::Zero();
  Bytes prev_signature;

  bool Allows(const crypto::Digest& root) const {
    return root == current || (has_prev && root == prev);
  }
};

struct ShardManifest {
  uint32_t num_shards = 0;
  uint64_t epoch = 0;  // bumped on every re-sign (any shard's update)
  // Root of the codebook-only MRKD forest every shard shares; fixed for
  // the life of the deployment (updates touch only the list trees).
  crypto::Digest codebook_root = crypto::Digest::Zero();
  std::vector<ShardRoots> shards;  // index == shard id; size == num_shards
  Bytes signature;  // RsaSign(owner, ManifestDigest())

  // Canonical digest over every field above except the signature itself.
  crypto::Digest ManifestDigest() const;

  // Signature over ManifestDigest() with the owner key / its public half.
  void Sign(const crypto::RsaPrivateKey& owner_key);
  bool VerifySignature(const crypto::RsaPublicKey& public_key) const;

  // The fixed partition rule. num_shards must be nonzero.
  static uint32_t ShardOf(uint64_t image_id, uint32_t num_shards) {
    return static_cast<uint32_t>(image_id % num_shards);
  }

  Bytes Serialize() const;
  // Hardened: allocation caps against bytes present, strict bools, no
  // trailing bytes; every failure is kCorrupted. Structural invariants
  // (nonzero shard count, shards.size() == num_shards) are enforced here,
  // so a deserialized manifest is structurally valid even before its
  // signature is checked.
  static Status Deserialize(const Bytes& data, ShardManifest* out);
};

// Crash-safe persistence at `path` (AtomicWriteFile).
Status SaveManifest(const std::string& path, const ShardManifest& manifest);
Result<ShardManifest> LoadManifest(const std::string& path);

}  // namespace imageproof::shard

#endif  // IMAGEPROOF_SHARD_MANIFEST_H_
