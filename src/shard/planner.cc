#include "shard/planner.h"

#include <filesystem>

#include "common/random.h"

namespace imageproof::shard {

ShardedDeployment ShardPlanner::Build(
    const core::Config& config, const ann::PointSet& codebook,
    const std::vector<std::pair<bovw::ImageId, bovw::BovwVector>>& corpus,
    const std::unordered_map<bovw::ImageId, Bytes>& image_data,
    uint32_t num_shards, uint64_t key_seed) {
  if (num_shards == 0) num_shards = 1;

  ShardedDeployment out;

  // One keypair for the whole deployment (see header comment).
  Rng key_rng(key_seed);
  out.keys = crypto::RsaKeyPair::Generate(config.rsa_bits, key_rng);

  // Freeze idf weights over the FULL corpus, before partitioning — the
  // load-bearing step for cross-layout byte identity.
  std::vector<bovw::BovwVector> all_vecs;
  all_vecs.reserve(corpus.size());
  for (const auto& [id, v] : corpus) all_vecs.push_back(v);
  bovw::ClusterWeights weights =
      bovw::ClusterWeights::FromCorpus(codebook.size(), all_vecs);

  // Partition by the fixed rule; slices preserve the input's id order.
  std::vector<std::vector<std::pair<bovw::ImageId, bovw::BovwVector>>> slices(
      num_shards);
  std::vector<std::unordered_map<bovw::ImageId, Bytes>> slice_images(
      num_shards);
  for (const auto& entry : corpus) {
    const uint32_t sid = ShardManifest::ShardOf(entry.first, num_shards);
    slices[sid].push_back(entry);
    auto it = image_data.find(entry.first);
    if (it != image_data.end()) slice_images[sid][it->first] = it->second;
  }

  // The codebook forest is a function of the codebook and config alone:
  // built once, shared by every shard.
  core::BuildOverrides overrides;
  overrides.weights = &weights;
  overrides.keys = &out.keys;
  overrides.codebook_ads =
      core::BuildCodebookAds(config, codebook, /*split=*/true);
  out.shards.reserve(num_shards);
  for (uint32_t sid = 0; sid < num_shards; ++sid) {
    out.shards.push_back(core::BuildDeployment(
        config, ann::PointSet(), std::move(slices[sid]),
        std::move(slice_images[sid]), key_seed, overrides));
  }

  out.manifest.num_shards = num_shards;
  out.manifest.epoch = 0;
  out.manifest.codebook_root = out.shards[0].package->ForestRoot();
  out.manifest.shards.resize(num_shards);
  for (uint32_t sid = 0; sid < num_shards; ++sid) {
    ShardRoots& roots = out.manifest.shards[sid];
    roots.current = out.shards[sid].package->RootDigest();
    roots.current_signature = out.shards[sid].public_params.root_signature;
  }
  out.manifest.Sign(out.keys.private_key);
  return out;
}

std::string ShardDirName(uint32_t shard_id) {
  return "shard-" + std::to_string(shard_id);
}

Status WriteShardedDeployment(const std::string& dir,
                              const ShardedDeployment& deployment,
                              const storage::WriteOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Error("shard: cannot create " + dir);
  for (uint32_t sid = 0; sid < deployment.manifest.num_shards; ++sid) {
    const std::string shard_dir = dir + "/" + ShardDirName(sid);
    std::filesystem::create_directories(shard_dir, ec);
    if (ec) return Status::Error("shard: cannot create " + shard_dir);
    Result<std::string> path = storage::PackageStore::WriteEpoch(
        shard_dir, 0, *deployment.shards[sid].package, options);
    if (!path.ok()) return path.status();
    if (Status s = storage::PackageStore::SetCurrentEpoch(shard_dir, 0);
        !s.ok()) {
      return s;
    }
  }
  // Last, so a manifest on disk always names complete shard directories.
  return SaveManifest(dir + "/MANIFEST", deployment.manifest);
}

Result<OpenedShardedDeployment> OpenShardedDeployment(
    const std::string& dir, const core::PublicParams& base_params) {
  Result<ShardManifest> manifest = LoadManifest(dir + "/MANIFEST");
  if (!manifest.ok()) return manifest.status();
  if (!manifest->VerifySignature(base_params.public_key)) {
    return Status::Corrupted("shard: manifest signature verification failed");
  }

  OpenedShardedDeployment out;
  out.manifest = std::move(*manifest);
  out.shards.resize(out.manifest.num_shards);
  for (uint32_t sid = 0; sid < out.manifest.num_shards; ++sid) {
    OpenedShard& shard = out.shards[sid];
    shard.params = base_params;
    shard.params.root_signature = out.manifest.shards[sid].current_signature;
    shard.params.split_root = true;
    storage::OpenOptions open_opts;
    open_opts.params = &shard.params;
    // Shard 0 decodes the codebook piece; the others adopt it when their
    // codebook and trees sections are the same bytes. A shard whose
    // sections differ decodes its own, and the codebook root check below
    // rejects it.
    if (sid > 0) open_opts.codebook_ads = out.shards[0].package->codebook_ads;
    auto pkg = storage::PackageStore::OpenCurrent(
        dir + "/" + ShardDirName(sid), open_opts, &shard.epoch);
    if (!pkg.ok()) return pkg.status();
    if ((*pkg)->ForestRoot() != out.manifest.codebook_root) {
      return Status::Corrupted("shard " + std::to_string(sid) +
                               ": codebook forest diverges from the manifest");
    }
    shard.package = std::move(*pkg);
  }
  return out;
}

}  // namespace imageproof::shard
