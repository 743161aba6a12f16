#include "core/update.h"

#include <algorithm>

#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::core {

namespace {

crypto::Digest ImageDigest(ImageId id, const Bytes& data) {
  return crypto::DigestBuilder()
      .AddU64(id)
      .AddDigest(crypto::Sha3(data))
      .Finalize();
}

// Propagates the changed list digests of `clusters` through every MRKD-tree
// — or, in the split-root layout, along the list tree's leaf-to-root paths,
// leaving the shared codebook forest untouched — and re-signs the new root.
size_t RefreshAndResign(SpPackage* package,
                        const crypto::RsaPrivateKey& owner_key,
                        PublicParams* public_params,
                        const std::vector<bovw::ClusterId>& clusters) {
  size_t rehashed = 0;
  if (package->split_root()) {
    for (bovw::ClusterId c : clusters) {
      rehashed += package->list_tree->UpdateLeaf(
          c, ListLeaf(package->list_digests[c]));
    }
  } else {
    for (auto& tree : package->mrkd_trees) {
      for (bovw::ClusterId c : clusters) {
        rehashed += tree->RefreshListDigest(c);
      }
    }
  }
  public_params->root_signature =
      crypto::RsaSign(owner_key, package->RootDigest());
  return rehashed;
}

}  // namespace

Result<UpdateStats> InsertImage(SpPackage* package,
                                const crypto::RsaPrivateKey& owner_key,
                                PublicParams* public_params, ImageId id,
                                bovw::BovwVector bovw, Bytes image_data) {
  if (package->disk_backed()) {
    // Disk-backed packages are immutable views of a mapped file; the engine
    // clones them into memory (via the in-memory .ipk round-trip) before
    // applying updates, so a direct mutation here is a caller bug.
    return Result<UpdateStats>::Error(
        "update: cannot mutate a disk-backed package in place");
  }
  if (package->image_data.contains(id)) {
    return Result<UpdateStats>::Error("update: image id already exists");
  }
  if (bovw.empty()) {
    return Result<UpdateStats>::Error("update: empty BoVW vector");
  }
  const uint64_t hashes_before = crypto::HashInvocations();
  UpdateStats stats;
  double norm = bovw.L2Norm();
  std::vector<bovw::ClusterId> touched;
  for (const auto& [c, f] : bovw.entries) {
    Status s = Status::Ok();
    if (package->config.freq_grouped) {
      if (c >= package->fg_index->num_clusters()) {
        s = Status::Error("update: cluster out of range");
      } else {
        s = package->fg_index->ApplyInsert(c, id, f, norm);
      }
    } else {
      if (c >= package->inv_index->num_clusters()) {
        s = Status::Error("update: cluster out of range");
      } else {
        double weight = package->inv_index->list(c).weight;
        s = package->inv_index->ApplyInsert(
            c, id, bovw::ImpactValue(weight, f, norm));
      }
    }
    if (!s.ok()) {
      // Roll back the lists already updated so the package still matches
      // the published signature.
      for (bovw::ClusterId rc : touched) {
        if (package->config.freq_grouped) {
          (void)package->fg_index->ApplyRemove(rc, id);
        } else {
          (void)package->inv_index->ApplyRemove(rc, id);
        }
        package->list_digests[rc] =
            package->config.freq_grouped
                ? package->fg_index->list(rc).digest
                : package->inv_index->list(rc).digest;
      }
      if (!touched.empty()) {
        RefreshAndResign(package, owner_key, public_params, touched);
      }
      return s;
    }
    package->list_digests[c] = package->config.freq_grouped
                                   ? package->fg_index->list(c).digest
                                   : package->inv_index->list(c).digest;
    touched.push_back(c);
    ++stats.lists_updated;
  }

  package->corpus.emplace_back(id, std::move(bovw));
  if (package->config.sign_images) {
    package->image_signatures[id] =
        crypto::RsaSign(owner_key, ImageDigest(id, image_data));
  }
  package->image_data[id] = std::move(image_data);

  stats.mrkd_nodes_rehashed =
      RefreshAndResign(package, owner_key, public_params, touched);
  stats.hash_invocations = crypto::HashInvocations() - hashes_before;
  return stats;
}

Result<UpdateStats> DeleteImage(SpPackage* package,
                                const crypto::RsaPrivateKey& owner_key,
                                PublicParams* public_params, ImageId id) {
  if (package->disk_backed()) {
    return Result<UpdateStats>::Error(
        "update: cannot mutate a disk-backed package in place");
  }
  auto corpus_it = std::find_if(
      package->corpus.begin(), package->corpus.end(),
      [id](const auto& entry) { return entry.first == id; });
  if (corpus_it == package->corpus.end()) {
    return Result<UpdateStats>::Error("update: unknown image id");
  }
  const uint64_t hashes_before = crypto::HashInvocations();
  UpdateStats stats;
  std::vector<bovw::ClusterId> touched;
  for (const auto& [c, f] : corpus_it->second.entries) {
    Status s = package->config.freq_grouped
                   ? package->fg_index->ApplyRemove(c, id)
                   : package->inv_index->ApplyRemove(c, id);
    if (!s.ok()) return s;  // structurally impossible for consistent data
    package->list_digests[c] = package->config.freq_grouped
                                   ? package->fg_index->list(c).digest
                                   : package->inv_index->list(c).digest;
    touched.push_back(c);
    ++stats.lists_updated;
  }
  package->corpus.erase(corpus_it);
  package->image_data.erase(id);
  package->image_signatures.erase(id);

  stats.mrkd_nodes_rehashed =
      RefreshAndResign(package, owner_key, public_params, touched);
  stats.hash_invocations = crypto::HashInvocations() - hashes_before;
  return stats;
}

}  // namespace imageproof::core
