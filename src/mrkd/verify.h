// Client-side verification of the MRKDSearch VOs of one query: replays every
// tree's traversal with the client's own activity decisions, reconstructs
// each root digest, and extracts the per-query candidate sets.
//
// The replay enforces strict agreement: a subtree may be pruned in the VO
// iff the client computes an empty active set for it. Anything else —
// missing subtrees, gratuitous reveals, malformed tokens — is rejected, so
// a VO that verifies pins down exactly the candidate sets an honest SP
// would produce.
//
// Each tree is verified in two passes. Pass 1 parses its token streams and
// makes every activity, pruning and leaf decision, recording a flat node
// array (no digest is computed). Pass 2 recomputes every leaf and internal
// digest bottom-up, one height level at a time, four preimages at a time
// on the interleaved Keccak (crypto::HashBatch). The digests — and how
// many are computed — are those of a serial post-order replay; only the
// order of hashing differs.

#ifndef IMAGEPROOF_MRKD_VERIFY_H_
#define IMAGEPROOF_MRKD_VERIFY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "mrkd/commit.h"

namespace imageproof::mrkd {

// The client's cluster id -> commitment lookup for MRKD leaf entries, built
// once per VO from the verified reveal section: a flat table sorted by id.
// Entries keep the index they were assigned with (the reveal index).
class CommitmentTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  // Entry i commits cluster ids[i] to commitments[i]. Fails on a duplicate
  // id.
  Status Assign(const std::vector<ClusterId>& ids,
                std::vector<Digest> commitments);

  size_t size() const { return commitments_.size(); }
  // Entry index of cluster `c`, or kNotFound.
  uint32_t Find(ClusterId c) const;
  const Digest& commitment(uint32_t i) const { return commitments_[i]; }

 private:
  std::vector<std::pair<ClusterId, uint32_t>> by_id_;  // sorted by id
  std::vector<Digest> commitments_;                    // by entry index
};

struct ForestVerifyOutput {
  std::vector<Digest> roots;  // reconstructed root digest per tree
  // candidate[q * table.size() + i] != 0 iff table entry i's cluster sits in
  // a leaf that some tree reveals while query q is active.
  std::vector<uint8_t> candidate;
  // Per table entry: the inverted-list digest the leaves bind to its
  // cluster, if the cluster appears in any revealed leaf. Leaves that bind
  // one cluster to different digests are rejected. Later cross-checked
  // against the inverted-index VO. All empty for codebook-only trees.
  std::vector<std::optional<Digest>> list_digests;
};

// Replays the token streams `tree_vos` (one per tree, each consumed
// exactly).
//   `commitments`   every leaf entry's cluster must be present.
//   `queries`/`thresholds_sq` define activity exactly as on the SP.
//   `shared`        false replays one independent stream per query per tree
//                   (the Baseline layout); every stream of a tree must
//                   reconstruct the same root.
//   `leaves_bind_lists` false replays codebook-only trees (leaf entries
//                   carry no list digest; mrkd/mrkd_tree.h).
Status VerifyForestVo(const std::vector<Bytes>& tree_vos, size_t dims,
                      const CommitmentTable& commitments,
                      const std::vector<const float*>& queries,
                      const std::vector<double>& thresholds_sq, bool shared,
                      ForestVerifyOutput* out, bool leaves_bind_lists = true);

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_VERIFY_H_
