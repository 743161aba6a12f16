// Image owner: ADS generation (Section V-A).
//
// Given the codebook, the encoded corpus, and the raw image payloads, the
// owner
//   1. signs every image:  sig_I = sign(sk, h(I | h(img_I)))      (Eq. 15)
//   2. builds the (frequency-grouped) Merkle inverted index,
//   3. builds n_t randomized k-d trees over the codebook and decorates them
//      into MRKD-trees whose leaves embed the inverted-list digests,
//   4. signs h(root_1 | ... | root_{n_t}) — the digest of ImageProof.
// The output splits into the SP package (everything the service provider
// hosts) and the public parameters clients use for verification.

#ifndef IMAGEPROOF_CORE_OWNER_H_
#define IMAGEPROOF_CORE_OWNER_H_

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ann/rkd_forest.h"
#include "core/config.h"
#include "core/vo.h"
#include "freqgroup/fg_index.h"
#include "invindex/merkle_inv_index.h"
#include "merkle/merkle_tree.h"
#include "mrkd/mrkd_tree.h"

namespace imageproof::core {

// Read-only provider of image payloads for a package whose blobs live
// outside the in-memory maps — the mmap'd package store
// (storage/package_store.h) serves result images straight from the file so
// a deployment larger than RAM never materializes its corpus.
// Implementations must be safe for concurrent Get calls over an immutable
// package and must integrity-check every record before handing it out: a
// tampered or bit-rotted payload surfaces as kCorrupted, never as silently
// wrong bytes inside a VO.
class ImagePayloadSource {
 public:
  virtual ~ImagePayloadSource() = default;

  virtual size_t Count() const = 0;

  // Looks up `id`, copying its payload and signature out of the store.
  // *found = false (with an OK status) when the id is absent; kCorrupted
  // when the stored record fails its integrity check.
  virtual Status Get(ImageId id, bool* found, Bytes* data,
                     Bytes* signature) const = 0;

  // Visits every record in ascending id order. Stops at the first non-OK
  // callback result or integrity failure and returns it.
  virtual Status ForEach(
      const std::function<Status(ImageId, BytesView data, BytesView sig)>& fn)
      const = 0;
};

// The codebook side of the ADS: the codebook, its randomized k-d forest,
// the cluster commitments and — in the split-root layout — the
// codebook-only MRKD-trees. None of it depends on the image corpus, so one
// immutable piece serves every package of a deployment: all shards of a
// sharded one, and every snapshot an update clones (core/query_engine.h).
// Packages hold it as shared_ptr<const CodebookAds>. Filled in place, then
// frozen: the forest and trees point into `points`, so it is never copied or
// moved.
struct CodebookAds {
  CodebookAds() = default;
  CodebookAds(const CodebookAds&) = delete;
  CodebookAds& operator=(const CodebookAds&) = delete;

  // The SHA3 digests of the .ipk codebook and trees sections a piece was
  // decoded from (storage/package_store.h). A decoder adopts the piece for
  // another image only when that image's two sections have these digests.
  struct SectionDigests {
    crypto::Digest codebook;
    crypto::Digest trees;
  };

  ann::PointSet points;
  std::unique_ptr<ann::RkdForest> forest;
  mrkd::RevealMode reveal_mode = mrkd::RevealMode::kFullVector;
  // Cluster commitments under `reveal_mode`, shared by every MRKD-tree.
  std::vector<crypto::Digest> cluster_commitments;
  // Split-root layout: the codebook-only MRKD-trees, one per forest tree.
  // Empty in the single-root layout, whose trees bind one package's lists.
  // A codebook-only tree has no mutation (RefreshListDigest is a no-op), so
  // packages share these.
  bool split_root = false;
  std::vector<std::shared_ptr<mrkd::MrkdTree>> mrkd_trees;
  // Unset for a piece built in memory.
  std::optional<SectionDigests> sections;

  // Derives the commitments and, `split`, the codebook-only MRKD-trees once
  // `points` and `forest` are set.
  void Derive(mrkd::RevealMode mode, bool split);
};

// Builds the piece for `config` over `codebook`: the forest, then Derive.
std::shared_ptr<const CodebookAds> BuildCodebookAds(const Config& config,
                                                    ann::PointSet codebook,
                                                    bool split);

// Everything outsourced to the SP. Not copyable (the MRKD-trees borrow the
// package's list digests).
struct SpPackage {
  explicit SpPackage(std::shared_ptr<const CodebookAds> codebook_piece);

  Config config;
  // The codebook side of the ADS, shared with the deployment's other
  // packages; `codebook` and `forest` view into it.
  const std::shared_ptr<const CodebookAds> codebook_ads;
  const ann::PointSet& codebook;
  const ann::RkdForest* const forest;
  std::vector<std::pair<ImageId, bovw::BovwVector>> corpus;
  std::unordered_map<ImageId, Bytes> image_data;
  std::unordered_map<ImageId, Bytes> image_signatures;

  // One MRKD-tree per forest tree: codebook_ads->mrkd_trees in the split
  // layout, and the package's own trees over list_digests otherwise.
  std::vector<std::shared_ptr<mrkd::MrkdTree>> mrkd_trees;
  // Exactly one of the two indexes is populated, per config.freq_grouped.
  std::unique_ptr<invindex::MerkleInvertedIndex> inv_index;
  std::unique_ptr<freqgroup::FgInvertedIndex> fg_index;
  std::vector<crypto::Digest> list_digests;
  // Split-root layout (sharded deployments, shard/planner.h): set iff the
  // MRKD-trees are codebook-only and the inverted lists hang off this
  // Merkle tree instead, leaf c committing list_digests[c]. Null for the
  // paper's single-root layout.
  std::unique_ptr<merkle::MerkleTree> list_tree;

  // Set for a disk-backed package: image payloads come from here and the
  // two maps above stay empty. `backing` pins whatever owns the source
  // (the file mapping) for the package's lifetime — snapshots hand
  // shared_ptr<const SpPackage> around, so lifetime must travel with the
  // package itself.
  const ImagePayloadSource* image_source = nullptr;
  std::shared_ptr<const void> backing;

  bool disk_backed() const { return image_source != nullptr; }

  // Uniform payload access over both representations. GetImage leaves
  // *found = false for unknown ids and returns kCorrupted when a
  // disk-backed record fails its integrity check.
  size_t NumImages() const;
  Status GetImage(ImageId id, bool* found, Bytes* data, Bytes* signature) const;
  Status ForEachImage(
      const std::function<Status(ImageId, BytesView data, BytesView sig)>& fn)
      const;
  // Order-insensitive payload + signature equality (the engine's
  // clone-vs-base update validation). Any integrity failure reads as "not
  // equal".
  bool ImagesEqual(const SpPackage& other) const;

  bool split_root() const { return codebook_ads->split_root; }

  // h(root_1 | ... | root_{n_t}) over the MRKD-trees.
  crypto::Digest ForestRoot() const;
  // The signed root: ForestRoot() in the single-root layout, and
  // SplitRootDigest(ForestRoot(), list_tree->root()) in the split layout.
  crypto::Digest RootDigest() const;

  // Sets the MRKD-trees and, in the split layout, builds the list tree
  // over `list_digests`, replacing any previous ones. Called once the
  // inverted index exists.
  void BuildAds();

  // Rough memory footprint of the ADS components (digests + filters), for
  // reporting.
  size_t AdsBytes() const;
};

struct OwnerOutput {
  // Heap-allocated and never moved: the MRKD-trees hold pointers into the
  // package's list-digest member.
  std::unique_ptr<SpPackage> package;
  PublicParams public_params;
  // Retained by the owner (never shipped to the SP) so the deployment can
  // be updated incrementally and re-signed; see core/update.h.
  crypto::RsaPrivateKey private_key;
};

// Optional injections for builds that must agree with other builds. The
// shard planner (shard/planner.h) builds N deployments over disjoint corpus
// slices but needs them mutually comparable: idf weights frozen from the
// FULL corpus (so per-image scores are byte-identical to an unsharded
// build), one shared owner keypair (so every shard's roots and image
// signatures verify under a single public key) and one codebook piece in
// the split-root layout (so every shard shares one codebook forest). Null
// members fall back to the default behavior (weights from the build's own
// corpus, fresh keys from key_seed, a single-root piece built from the
// codebook argument).
struct BuildOverrides {
  const bovw::ClusterWeights* weights = nullptr;
  const crypto::RsaKeyPair* keys = nullptr;
  // Built by BuildCodebookAds under the same config. When set, the codebook
  // argument is ignored and the piece's layout is the package's.
  std::shared_ptr<const CodebookAds> codebook_ads;
};

// The signed root of a split-root package: one codebook forest root shared
// by every shard, and the shard's own list-tree root.
crypto::Digest SplitRootDigest(const crypto::Digest& codebook_root,
                               const crypto::Digest& list_root);

// The list-tree leaf payload committing one inverted-list digest.
Bytes ListLeaf(const crypto::Digest& list_digest);

// Builds the whole deployment. `corpus` pairs image ids with their BoVW
// vectors (pre-encoded; see workload/ or the sift+ann pipeline), and
// `image_data` maps each id to its raw payload.
OwnerOutput BuildDeployment(
    const Config& config, ann::PointSet codebook,
    std::vector<std::pair<ImageId, bovw::BovwVector>> corpus,
    std::unordered_map<ImageId, Bytes> image_data, uint64_t key_seed = 0x5E5,
    const BuildOverrides& overrides = {});

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_OWNER_H_
