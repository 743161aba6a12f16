// Composite VO: the verifiable object of a sharded scatter-gather query.
//
// Every shard of a ShardPlanner deployment shares one codebook MRKD forest
// and signs a split root H(codebook root, its list root) (core/owner.h).
// The BoVW encoding of a query is therefore the same proof on every shard,
// and the composite VO carries it once:
//
//   * the manifest travels in-band (`manifest_bytes`). It is owner-signed,
//     so delivery through the untrusted SP/coordinator is safe — a swapped
//     or doctored manifest fails its signature check. It commits the
//     codebook root the BoVW section must replay to;
//   * one BoVW section (thresholds, candidate reveals, codebook-only tree
//     VOs), proven by one shard and shared by every entry;
//   * one entry per shard, in shard-id order, no shard missing (entry i
//     must claim shard_id == i, and the entry count must equal the
//     manifest's num_shards) — so a coordinator cannot silently drop the
//     shard holding a better result. Each entry is an inverted-only
//     core::QueryVO (inverted VO prefixed by the list-tree multiproof, plus
//     the results), scored on the vector the BoVW section proves;
//   * each entry carries the root signature its VO replays to, checked by
//     the verifier against the manifest's {current, prev} digest set for
//     that slot — so a (valid!) VO from shard 1 cannot be spliced into
//     shard 3's slot, and a stale epoch beyond the one-epoch freshness
//     window is rejected.
//
// The merge itself is not carried: it is recomputed by the verifier from
// the per-shard verified results (shard/composite_client.h), which is what
// makes it provable rather than claimed.
//
// Wire format (version net::kWireVersionComposite; the per-shard-proof
// format of version 2 has no decoder any more and fails as kCorrupted):
//
//   u32 magic | u32 version | blob manifest | BoVW section
//   (core::BovwSection::Serialize) | u32 entry count | per entry: u32
//   shard_id | u64 snapshot_version | blob root_signature | blob vo_bytes

#ifndef IMAGEPROOF_SHARD_COMPOSITE_H_
#define IMAGEPROOF_SHARD_COMPOSITE_H_

#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/vo.h"

namespace imageproof::shard {

// One shard's contribution: which slot it answers, the snapshot it served
// from, the owner signature over that snapshot's root digest, and the
// serialized inverted-only core::QueryVO proving its local top-k.
struct CompositeEntry {
  uint32_t shard_id = 0;
  uint64_t snapshot_version = 0;
  Bytes root_signature;
  Bytes vo_bytes;
};

struct CompositeVO {
  Bytes manifest_bytes;  // serialized signed ShardManifest
  core::BovwSection bovw;  // the query's BoVW proof, shared by every entry
  std::vector<CompositeEntry> entries;  // shard-id order, one per shard

  Bytes Serialize() const;
  // Hardened: version check, entry-count cap (kMaxShards) plus a
  // bytes-present bound, blob caps, strict ordering NOT enforced here (the
  // verifier rejects it with a precise message); every decode failure is
  // kCorrupted.
  static Status Deserialize(const Bytes& data, CompositeVO* out);
};

}  // namespace imageproof::shard

#endif  // IMAGEPROOF_SHARD_COMPOSITE_H_
