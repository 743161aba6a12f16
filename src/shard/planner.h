// ShardPlanner: partitions one corpus into N independent ImageProof
// deployments that are mutually composable.
//
// Sharding only helps if the merged answer is indistinguishable from the
// unsharded one — byte-identical scores, one public key, one verification
// story. Two build-time choices make that hold:
//
//   * idf weights are frozen from the FULL corpus (ClusterWeights::
//     FromCorpus over all N shards' vectors) and injected into every
//     shard's build, so an image's impact vector — and therefore its exact
//     similarity score — does not depend on which shard it landed in;
//   * one owner keypair signs everything: all shard roots, all image
//     signatures, and the shard manifest verify under a single public key;
//   * every shard uses the split-root layout (core/owner.h): its MRKD
//     forest is codebook-only, hence the same on every shard — built once,
//     held once in memory, committed once in the manifest — and its signed
//     root is H(codebook root, list root) — so a query's BoVW encoding is
//     one proof for all shards, and an update re-hashes only one list-tree
//     path.
//
// The partition is shard(id) = id mod num_shards (ShardManifest::ShardOf):
// stateless, so a verifier can check result placement without any lookup
// table, and uniform for the synthetic/SIFT workloads whose ids are dense.
//
// Persistence mirrors the unsharded epoch-directory protocol, per shard:
//
//   dir/MANIFEST            signed ShardManifest (AtomicWriteFile)
//   dir/shard-0/pkg-0.ipk   shard 0, epoch 0 (storage::PackageStore)
//   dir/shard-0/CURRENT
//   dir/shard-1/...
//
// so each shard epoch-swaps independently (one shard can update under load
// while the others keep serving) and the manifest re-sign is the only
// cross-shard coordination point.

#ifndef IMAGEPROOF_SHARD_PLANNER_H_
#define IMAGEPROOF_SHARD_PLANNER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/owner.h"
#include "shard/manifest.h"
#include "storage/package_store.h"

namespace imageproof::shard {

// A freshly built sharded deployment: one OwnerOutput per shard (index ==
// shard id), the signed manifest at epoch 0, and the shared owner keypair
// (retained coordinator-side for update re-signing; never shipped to SPs).
struct ShardedDeployment {
  std::vector<core::OwnerOutput> shards;
  ShardManifest manifest;
  crypto::RsaKeyPair keys;
};

class ShardPlanner {
 public:
  // Builds num_shards deployments over the id-mod partition of `corpus` /
  // `image_data`, with frozen global weights and a shared keypair (see the
  // header comment). `key_seed` as in core::BuildDeployment. An id in
  // image_data without a corpus entry is dropped with its shard's slice.
  static ShardedDeployment Build(
      const core::Config& config, const ann::PointSet& codebook,
      const std::vector<std::pair<bovw::ImageId, bovw::BovwVector>>& corpus,
      const std::unordered_map<bovw::ImageId, Bytes>& image_data,
      uint32_t num_shards, uint64_t key_seed = 0x5E5);
};

// "shard-<id>" — the per-shard epoch directory name under a deployment root.
std::string ShardDirName(uint32_t shard_id);

// Writes dir/MANIFEST plus one epoch directory per shard (epoch 0 package +
// CURRENT pointer), creating directories as needed. Crash-safe per file;
// the manifest is written last, so a torn deployment write leaves no
// manifest naming incomplete shards.
Status WriteShardedDeployment(const std::string& dir,
                              const ShardedDeployment& deployment,
                              const storage::WriteOptions& options = {});

// One shard reopened from disk: the mapped package, the PublicParams it
// verifies under (base params + this shard's manifest signature), and the
// epoch CURRENT named.
struct OpenedShard {
  std::unique_ptr<core::SpPackage> package;
  core::PublicParams params;
  uint64_t epoch = 0;
};

struct OpenedShardedDeployment {
  ShardManifest manifest;
  std::vector<OpenedShard> shards;  // index == shard id
};

// Reopens a WriteShardedDeployment directory. `base_params` supplies the
// config/public key/dims (its root_signature member is ignored); each
// shard's own root signature comes from the manifest, and every package
// open verifies against it and against the manifest's codebook root. The
// manifest signature itself is checked before any shard is touched. All
// shards hold shard 0's codebook piece (core::CodebookAds): one copy of
// the codebook, its forest and the codebook-only MRKD-trees.
Result<OpenedShardedDeployment> OpenShardedDeployment(
    const std::string& dir, const core::PublicParams& base_params);

}  // namespace imageproof::shard

#endif  // IMAGEPROOF_SHARD_PLANNER_H_
