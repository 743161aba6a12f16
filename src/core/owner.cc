#include "core/owner.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/random.h"
#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::core {

namespace {

crypto::Digest ImageDigest(ImageId id, const Bytes& data) {
  // h(I | h(img_I)) per Eq. (15).
  return crypto::DigestBuilder()
      .AddU64(id)
      .AddDigest(crypto::Sha3(data))
      .Finalize();
}

}  // namespace

// Domain tag of the split-root preimage, so it can never be read as the
// single-root h(root_1 | root_2) of a two-tree forest.
constexpr uint32_t kSplitRootTag = 0x54525053;  // "SPRT" on the wire

crypto::Digest SplitRootDigest(const crypto::Digest& codebook_root,
                               const crypto::Digest& list_root) {
  return crypto::DigestBuilder()
      .AddU32(kSplitRootTag)
      .AddDigest(codebook_root)
      .AddDigest(list_root)
      .Finalize();
}

Bytes ListLeaf(const crypto::Digest& list_digest) {
  return Bytes(list_digest.bytes.begin(), list_digest.bytes.end());
}

crypto::Digest SpPackage::ForestRoot() const {
  crypto::DigestBuilder b;
  for (const auto& tree : mrkd_trees) b.AddDigest(tree->root_digest());
  return b.Finalize();
}

crypto::Digest SpPackage::RootDigest() const {
  return list_tree ? SplitRootDigest(ForestRoot(), list_tree->root())
                   : ForestRoot();
}

void CodebookAds::Derive(mrkd::RevealMode mode, bool split) {
  reveal_mode = mode;
  split_root = split;
  mrkd::ClusterCommitments(mode, points, &cluster_commitments);
  mrkd_trees.clear();
  if (!split) return;
  for (const auto& tree : forest->trees()) {
    mrkd_trees.push_back(std::make_shared<mrkd::MrkdTree>(
        tree.get(), mode, nullptr, &cluster_commitments));
  }
}

std::shared_ptr<const CodebookAds> BuildCodebookAds(const Config& config,
                                                    ann::PointSet codebook,
                                                    bool split) {
  auto ads = std::make_shared<CodebookAds>();
  ads->points = std::move(codebook);
  ads->forest = std::make_unique<ann::RkdForest>(ads->points, config.forest);
  ads->Derive(config.reveal_mode, split);
  return ads;
}

SpPackage::SpPackage(std::shared_ptr<const CodebookAds> codebook_piece)
    : codebook_ads(std::move(codebook_piece)),
      codebook(codebook_ads->points),
      forest(codebook_ads->forest.get()) {}

void SpPackage::BuildAds() {
  list_tree.reset();
  if (split_root()) {
    mrkd_trees = codebook_ads->mrkd_trees;
    std::vector<Bytes> leaves;
    leaves.reserve(list_digests.size());
    for (const crypto::Digest& d : list_digests) leaves.push_back(ListLeaf(d));
    list_tree = std::make_unique<merkle::MerkleTree>(leaves);
    return;
  }
  mrkd_trees.clear();
  for (const auto& tree : forest->trees()) {
    mrkd_trees.push_back(std::make_shared<mrkd::MrkdTree>(
        tree.get(), config.reveal_mode, &list_digests,
        &codebook_ads->cluster_commitments));
  }
}

size_t SpPackage::NumImages() const {
  return image_source ? image_source->Count() : image_data.size();
}

Status SpPackage::GetImage(ImageId id, bool* found, Bytes* data,
                           Bytes* signature) const {
  *found = false;
  data->clear();
  signature->clear();
  if (image_source) return image_source->Get(id, found, data, signature);
  auto data_it = image_data.find(id);
  if (data_it == image_data.end()) return Status::Ok();
  *found = true;
  *data = data_it->second;
  auto sig_it = image_signatures.find(id);
  if (sig_it != image_signatures.end()) *signature = sig_it->second;
  return Status::Ok();
}

Status SpPackage::ForEachImage(
    const std::function<Status(ImageId, BytesView, BytesView)>& fn) const {
  if (image_source) return image_source->ForEach(fn);
  // Ascending id order even over the unordered map, so every byte stream
  // derived from a package (interchange serialization, the on-disk store)
  // is deterministic for logically identical content.
  std::vector<ImageId> ids;
  ids.reserve(image_data.size());
  for (const auto& [id, data] : image_data) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ImageId id : ids) {
    const Bytes& data = image_data.at(id);
    auto sig_it = image_signatures.find(id);
    BytesView sig = sig_it == image_signatures.end()
                        ? BytesView{}
                        : BytesView(sig_it->second);
    if (Status s = fn(id, BytesView(data), sig); !s.ok()) return s;
  }
  return Status::Ok();
}

bool SpPackage::ImagesEqual(const SpPackage& other) const {
  if (NumImages() != other.NumImages()) return false;
  Status s = ForEachImage([&other](ImageId id, BytesView data, BytesView sig) {
    bool found = false;
    Bytes other_data, other_sig;
    Status lookup = other.GetImage(id, &found, &other_data, &other_sig);
    if (!lookup.ok() || !found) return Status::Error("mismatch");
    if (other_data.size() != data.size ||
        !std::equal(other_data.begin(), other_data.end(), data.data)) {
      return Status::Error("mismatch");
    }
    if (other_sig.size() != sig.size ||
        !std::equal(other_sig.begin(), other_sig.end(), sig.data)) {
      return Status::Error("mismatch");
    }
    return Status::Ok();
  });
  return s.ok();
}

size_t SpPackage::AdsBytes() const {
  size_t n = 0;
  // MRKD digests: one per node per tree, plus cluster commitments.
  for (const auto& tree : mrkd_trees) {
    n += tree->tree().nodes().size() * crypto::kDigestSize;
  }
  n += codebook_ads->cluster_commitments.size() * crypto::kDigestSize;
  // The list tree keeps every level: < 2 digests per cluster.
  if (list_tree) n += 2 * list_tree->leaf_count() * crypto::kDigestSize;
  // Inverted-index digests and filters.
  if (inv_index) {
    for (size_t c = 0; c < inv_index->num_clusters(); ++c) {
      const auto& list = inv_index->list(static_cast<bovw::ClusterId>(c));
      n += list.postings.size() * crypto::kDigestSize;
      if (list.filter.has_value()) n += list.filter->Serialize().size();
    }
  }
  if (fg_index) {
    for (size_t c = 0; c < fg_index->num_clusters(); ++c) {
      const auto& list = fg_index->list(static_cast<bovw::ClusterId>(c));
      n += list.postings.size() * crypto::kDigestSize;
      if (list.filter.has_value()) n += list.filter->Serialize().size();
    }
  }
  // Per-image signatures.
  for (const auto& [id, sig] : image_signatures) n += sig.size();
  return n;
}

OwnerOutput BuildDeployment(
    const Config& config, ann::PointSet codebook,
    std::vector<std::pair<ImageId, bovw::BovwVector>> corpus,
    std::unordered_map<ImageId, Bytes> image_data, uint64_t key_seed,
    const BuildOverrides& overrides) {
  OwnerOutput out;
  out.package = std::make_unique<SpPackage>(
      overrides.codebook_ads
          ? overrides.codebook_ads
          : BuildCodebookAds(config, std::move(codebook), /*split=*/false));
  SpPackage& pkg = *out.package;
  pkg.config = config;
  pkg.corpus = std::move(corpus);
  pkg.image_data = std::move(image_data);

  // Keys and per-image signatures (Eq. 15).
  crypto::RsaKeyPair keys;
  if (overrides.keys) {
    keys = *overrides.keys;
  } else {
    Rng key_rng(key_seed);
    keys = crypto::RsaKeyPair::Generate(config.rsa_bits, key_rng);
  }
  if (config.sign_images) {
    // One RSA signature per image; embarrassingly parallel.
    std::vector<const std::pair<const ImageId, Bytes>*> entries;
    entries.reserve(pkg.image_data.size());
    for (const auto& entry : pkg.image_data) entries.push_back(&entry);
    std::vector<Bytes> signatures(entries.size());
    ParallelFor(entries.size(), [&](size_t i) {
      signatures[i] = crypto::RsaSign(
          keys.private_key, ImageDigest(entries[i]->first, entries[i]->second));
    });
    for (size_t i = 0; i < entries.size(); ++i) {
      pkg.image_signatures[entries[i]->first] = std::move(signatures[i]);
    }
  }

  // Weights + inverted index (plain or frequency-grouped).
  size_t num_clusters = pkg.codebook.size();
  std::vector<bovw::BovwVector> vecs;
  vecs.reserve(pkg.corpus.size());
  for (const auto& [id, v] : pkg.corpus) vecs.push_back(v);
  bovw::ClusterWeights weights =
      overrides.weights ? *overrides.weights
                        : bovw::ClusterWeights::FromCorpus(num_clusters, vecs);

  if (config.freq_grouped) {
    pkg.fg_index = std::make_unique<freqgroup::FgInvertedIndex>(
        freqgroup::FgInvertedIndex::Build(num_clusters, pkg.corpus, weights,
                                          config.with_filters,
                                          config.fingerprint_bits,
                                          config.filter_seed));
    pkg.list_digests = pkg.fg_index->ListDigests();
  } else {
    pkg.inv_index = std::make_unique<invindex::MerkleInvertedIndex>(
        invindex::MerkleInvertedIndex::Build(num_clusters, pkg.corpus, weights,
                                             config.with_filters,
                                             config.fingerprint_bits,
                                             config.filter_seed));
    pkg.list_digests = pkg.inv_index->ListDigests();
  }

  // The MRKD decorations over the codebook piece's forest.
  pkg.BuildAds();

  // Public parameters: signed ADS digest.
  out.public_params.config = config;
  out.public_params.public_key = keys.public_key;
  out.public_params.root_signature =
      crypto::RsaSign(keys.private_key, pkg.RootDigest());
  out.public_params.dims = pkg.codebook.dims();
  out.public_params.num_clusters = num_clusters;
  out.public_params.split_root = pkg.split_root();
  out.private_key = keys.private_key;
  return out;
}

}  // namespace imageproof::core
