// Client: result verification (Section V-C).
//
// Given its own feature vectors, the SP's claimed top-k and the VO, the
// client checks, in order:
//   1. the candidate-reveal section (cluster commitments, Merkle subset
//      proofs under Optimization A);
//   2. every MRKD-tree VO by exact replay — reconstructing each root — and
//      the owner's signature over h(root_1 | ... | root_{n_t});
//   3. the BoVW encoding: each feature's assigned cluster is the provable
//      nearest among the authenticated candidates, within its threshold;
//   4. the inverted-index VO: list digests (cross-checked against the ones
//      the MRKD leaves authenticate), posting chains, termination
//      conditions, and that the claimed results are the top-k;
//   5. each result image's Eq. (15) signature.
// Any failure yields a Status naming the violated check.
//
// In the split-root layout of a shard (PublicParams::split_root; core/
// owner.h) step 2 replays codebook-only trees and checks no signature, and
// step 4 authenticates the list digests through the list-tree multiproof
// instead, checking the owner's signature over the split root rebuilt from
// both.

#ifndef IMAGEPROOF_CORE_CLIENT_H_
#define IMAGEPROOF_CORE_CLIENT_H_

#include <optional>
#include <vector>

#include "core/server.h"
#include "core/vo.h"
#include "mrkd/verify.h"

namespace imageproof::core {

struct VerifiedResults {
  // Result ids with verified lower-bound similarity scores, best first.
  std::vector<bovw::ScoredImage> topk;
  // Verified raw image payloads, aligned with `topk`.
  std::vector<Bytes> images;
  // The ADS root digest h(root_1 | ... | root_{n_t}) the VO replayed to —
  // the owner's signature in PublicParams verified over exactly this value.
  // The sharded composite verifier pins each shard's response to the root
  // digest recorded in the signed shard manifest through this field.
  crypto::Digest root_digest = crypto::Digest::Zero();
  // True when every verified score is provably exact rather than a lower
  // bound (InvVerifyResult::topk_exact) — the precondition for merging
  // results across shards.
  bool topk_scores_exact = false;
  double client_bovw_ms = 0;  // time in steps 1-3
  double client_inv_ms = 0;   // time in steps 4-5
};

// Steps 1-3 of a verified BoVW section.
struct VerifiedBovw {
  bovw::BovwVector query_bovw;
  // h(root_1 | ... | root_{n_t}) the tree replays reconstructed.
  crypto::Digest forest_root = crypto::Digest::Zero();
  // Per revealed cluster, the inverted-list digest the MRKD leaves bind
  // (single-root layout; codebook-only trees bind none).
  mrkd::CommitmentTable commitments;
  std::vector<std::optional<crypto::Digest>> list_digests;
};

class Client {
 public:
  explicit Client(PublicParams params) : params_(std::move(params)) {}

  // Verifies a query response end to end. `features` are the client's own
  // query vectors (the same ones sent to the SP); `k` the requested k.
  Result<VerifiedResults> Verify(const std::vector<std::vector<float>>& features,
                                 size_t k, const QueryVO& vo) const;

  // The split-root layout, in two halves, for the composite verifier
  // (shard/composite_client.h), which checks one BoVW section for every
  // shard's entry.
  //
  // Steps 1-3 over codebook-only MRKD-trees. Checks no signature: the
  // returned forest_root is the codebook root, which the caller must
  // authenticate (every shard root signs it).
  Result<VerifiedBovw> VerifyBovwSection(
      const std::vector<std::vector<float>>& features,
      const BovwSection& section) const;
  // Steps 4-5 of an inverted-only entry, scored on `bovw` (from
  // VerifyBovwSection): the inverted VO, the list-tree multiproof of its
  // list digests, the owner's signature in params() over
  // SplitRootDigest(bovw.forest_root, list root) — the returned
  // root_digest — and the image signatures.
  Result<VerifiedResults> VerifyEntry(const VerifiedBovw& bovw, size_t k,
                                      const QueryVO& entry) const;

  const PublicParams& params() const { return params_; }

 private:
  // The verification pipeline itself. Verify() wraps it with the
  // observability layer: outcome counters, per-ADS stage timers, and the
  // VO-size-by-component histograms (obs/registry.h, "client.*" names).
  Result<VerifiedResults> VerifyImpl(
      const std::vector<std::vector<float>>& features, size_t k,
      const QueryVO& vo) const;

  PublicParams params_;
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_CLIENT_H_
