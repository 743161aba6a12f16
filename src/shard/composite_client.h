// CompositeClient: client-side verification of a sharded scatter-gather
// response (DESIGN.md §15, extended Lemma 1).
//
// VerifyComposite establishes, from the composite bytes alone plus the
// owner public key the client already holds:
//
//   1. manifest authenticity — the in-band manifest carries a valid owner
//      signature, so its partition rule, codebook root and per-shard root
//      digest sets are the owner's statement, not the coordinator's;
//   2. coverage — exactly num_shards entries, entry i claiming shard i: no
//      shard dropped (the dropped shard might hold a better result), none
//      duplicated, none reordered;
//   3. the BoVW encoding, once — the shared BoVW section replays (reveals,
//      codebook-only MRKD trees, nearest-cluster checks) to the manifest's
//      codebook root, which yields the query's BoVW vector B_Q;
//   4. per-shard soundness — each entry's inverted-only QueryVO verifies
//      under the core client against B_Q and the entry's root signature:
//      its list digests, through the list-tree multiproof, rebuild a list
//      root, and the split root H(codebook root, list root) must carry the
//      entry's signature AND be in the manifest's {current, prev} set for
//      that slot. A VO from another shard (signed by the same owner!)
//      rebuilds a root the slot does not allow, a stale epoch beyond the
//      one-epoch freshness window is likewise rejected, and a shard that
//      scored any vector other than B_Q fails its inverted check;
//   5. exactness — every per-shard verified score is provably exact
//      (VerifiedResults::topk_scores_exact), not a lower bound; without
//      this a shard could deflate a score to eject an image from the
//      global merge;
//   6. placement — every result id satisfies id mod num_shards == shard id,
//      so an image cannot be answered (or suppressed) by the wrong shard;
//   7. the merge itself — recomputed here, never trusted: the global top-k
//      of the union is the (score desc, id asc)-sorted merge of the local
//      top-k's, which is complete because any global top-k member is by
//      definition in its own shard's local top-k.
//
// Any violation returns a Status naming the failed check; kCorrupted for
// undecodable bytes, kError for a decodable but unsound composite.

#ifndef IMAGEPROOF_SHARD_COMPOSITE_CLIENT_H_
#define IMAGEPROOF_SHARD_COMPOSITE_CLIENT_H_

#include <vector>

#include "core/client.h"
#include "shard/composite.h"
#include "shard/manifest.h"

namespace imageproof::shard {

struct CompositeVerifiedResults {
  // The provable global top-k over all shards, best first, with exact
  // scores; ties broken by ascending id (the corpus-wide convention).
  std::vector<bovw::ScoredImage> topk;
  // Verified raw image payloads, aligned with `topk`.
  std::vector<Bytes> images;
  uint64_t manifest_epoch = 0;
  uint32_t num_shards = 0;
  // Per-shard verified results, index == shard id (for diagnostics and
  // tests; the merge above is derived from exactly these).
  std::vector<core::VerifiedResults> per_shard;
};

class CompositeClient {
 public:
  // `base_params` is the deployment's trusted configuration: config,
  // public key, dims, num_clusters. Its root_signature member is unused —
  // per-shard signatures arrive in the composite and are validated against
  // the manifest.
  explicit CompositeClient(core::PublicParams base_params)
      : params_(std::move(base_params)) {}

  Result<CompositeVerifiedResults> VerifyComposite(
      const std::vector<std::vector<float>>& features, size_t k,
      const Bytes& composite_bytes) const;

  const core::PublicParams& params() const { return params_; }

 private:
  core::PublicParams params_;
};

}  // namespace imageproof::shard

#endif  // IMAGEPROOF_SHARD_COMPOSITE_CLIENT_H_
