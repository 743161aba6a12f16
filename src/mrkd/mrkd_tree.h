// Merkle randomized k-d tree (Section IV-A) — the first ADS of ImageProof.
//
// Decorates an ann::RkdTree built over the codebook with digests:
//   internal node  h_N = h(l_N | h_left | h_right)            (Definition 2)
//   leaf node      h_N = h(ccommit_1 | h_G1 | ... )           (Definition 3)
// where l_N is the canonical encoding of the splitting hyperplane, ccommit_i
// is the cluster commitment (mrkd/commit.h), and h_Gi is the digest of the
// cluster's Merkle inverted list — which is how the MRKD-tree is linked to
// the second ADS.
//
// A codebook-only tree (no list digests) drops the h_Gi terms:
//   leaf node      h_N = h(ccommit_1 | ccommit_2 | ... )
// Sharded deployments (shard/planner.h) use it: every shard shares one
// codebook forest, so its root cannot also bind any one shard's lists —
// those hang off a separate per-shard list tree (core/owner.h).
//
// Thread safety: every const accessor is safe to call concurrently; the
// search code (mrkd/search.h) reads only through them. The single mutator
// is RefreshListDigest (plus the shared `list_digests` vector it reads,
// owned by SpPackage), used by the incremental-update path; it must never
// run concurrently with searches over the same tree. Concurrent serving
// therefore applies updates to a cloned package and swaps snapshots
// (core/query_engine.h) instead of mutating a live one.

#ifndef IMAGEPROOF_MRKD_MRKD_TREE_H_
#define IMAGEPROOF_MRKD_MRKD_TREE_H_

#include <vector>

#include "ann/rkd_tree.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"
#include "mrkd/commit.h"

namespace imageproof::mrkd {

class MrkdTree {
 public:
  // `tree` is borrowed and must outlive the MrkdTree. `list_digests[c]` is
  // the digest h_{Gamma_c} of cluster c's Merkle inverted list; null builds
  // a codebook-only tree whose leaves bind cluster commitments alone.
  // `commitments[c]` is cluster c's commitment (mrkd::ClusterCommitments
  // over the tree's points), shared by every tree of a forest; null
  // computes them here. Both vectors are borrowed.
  MrkdTree(const ann::RkdTree* tree, RevealMode mode,
           const std::vector<Digest>* list_digests,
           const std::vector<Digest>* commitments);
  MrkdTree(const ann::RkdTree* tree, RevealMode mode,
           const std::vector<Digest>& list_digests)
      : MrkdTree(tree, mode, &list_digests, nullptr) {}

  const ann::RkdTree& tree() const { return *tree_; }
  RevealMode mode() const { return mode_; }
  const Digest& root_digest() const { return node_digests_[tree_->root()]; }
  const Digest& node_digest(int node) const { return node_digests_[node]; }
  bool binds_lists() const { return list_digests_ != nullptr; }
  const Digest& list_digest(ClusterId c) const { return (*list_digests_)[c]; }
  const Digest& cluster_commitment(ClusterId c) const {
    return (*commitments_)[c];
  }

  // Digest contribution of a splitting hyperplane (shared with the client's
  // replay, which reconstructs internal digests from VO tokens):
  // split_dim(u32) | split_value(f32) | left | right.
  static constexpr size_t kInternalPreimageSize =
      4 + 4 + 2 * crypto::kDigestSize;
  static void PutInternal(uint8_t* out, uint32_t split_dim, float split_value,
                          const Digest& left, const Digest& right);
  static void HashInternal(crypto::DigestBuilder& b, uint32_t split_dim,
                           float split_value, const Digest& left,
                           const Digest& right);

  // The kTokenLeaf run of leaf `node` (mrkd/search.h): varint count, then
  // per entry varint cluster id and, when the tree binds lists, the list
  // digest.
  void PutLeafToken(ByteWriter& w, int node) const;

  // Incremental refresh after cluster c's inverted-list digest changed in
  // the shared list-digest vector: recomputes the digest of c's leaf and of
  // every ancestor up to the root — O(log n_C) hashes instead of a full
  // rebuild. Returns the number of nodes rehashed (0 for a codebook-only
  // tree, which binds no list digest).
  size_t RefreshListDigest(ClusterId c);

 private:
  // Full build: groups nodes by depth and digests each level through the
  // batch API, deepest level first (children before parents).
  void BuildNodeDigests();
  Digest RecomputeLocalDigest(int node);  // from children/leaf content only
  void BuildParentsAndLeafMap();

  const ann::RkdTree* tree_;
  RevealMode mode_;
  const std::vector<Digest>* list_digests_;
  std::vector<Digest> own_commitments_;  // when none were passed in
  const std::vector<Digest>* commitments_;
  std::vector<Digest> node_digests_;
  std::vector<int32_t> parents_;       // parent node index, -1 for the root
  std::vector<int32_t> leaf_of_;       // cluster -> leaf node index
};

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_MRKD_TREE_H_
