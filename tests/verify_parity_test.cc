// Hash-count parity of client verification. The client recomputes every
// digest it relies on; batching (crypto::HashBatch, Sha3x4 posting chains,
// level-by-level MRKD replay) may change the order in which the digests are
// computed, never how many. These tests pin the crypto::HashInvocations()
// delta of one Client::Verify (and one VerifyComposite) on seeded small
// deployments: a batched path that skips a digest or hashes one twice moves
// the count and fails here. The composite pins also show the shared BoVW
// section is replayed once, not once per shard.

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "crypto/sha3.h"
#include "mrkd/commit.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/planner.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

struct Corpus {
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> images;
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  ann::PointSet codebook;
};

Corpus MakeCorpus(size_t num_images, size_t num_clusters, size_t dims,
                  uint64_t seed) {
  Corpus c;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = num_clusters;
  cp.seed = seed;
  c.images = workload::GenerateCorpus(cp);
  for (const auto& [id, v] : c.images) {
    c.blobs[id] = workload::GenerateImageBlob(id);
  }
  workload::CodebookParams cbp;
  cbp.num_clusters = num_clusters;
  cbp.dims = dims;
  cbp.seed = seed + 1;
  c.codebook = workload::GenerateCodebook(cbp);
  return c;
}

// Digests one honest Client::Verify computes on a seeded deployment.
// `partial_reveals` (optional) receives the number of partially revealed
// candidates in the VO.
uint64_t VerifyHashes(core::Config config, size_t* partial_reveals = nullptr) {
  config.rsa_bits = 512;
  Corpus c = MakeCorpus(300, 128, 16, 13);
  core::OwnerOutput owner = core::BuildDeployment(
      config, c.codebook, std::move(c.images), std::move(c.blobs));
  core::ServiceProvider sp(owner.package.get());
  auto features = workload::GenerateQueryFeatures(c.codebook, 10, 0.3, 21);
  core::QueryResponse resp = sp.Query(features, 5);
  if (partial_reveals != nullptr) {
    ByteReader r(resp.vo.reveal_section);
    std::vector<mrkd::ClusterReveal> reveals;
    EXPECT_TRUE(mrkd::DeserializeReveals(r, 16, &reveals).ok());
    *partial_reveals = 0;
    for (const mrkd::ClusterReveal& rev : reveals) {
      if (!rev.full) ++*partial_reveals;
    }
  }
  core::Client client(owner.public_params);
  const uint64_t before = crypto::HashInvocations();
  auto verified = client.Verify(features, 5, resp.vo);
  const uint64_t hashes = crypto::HashInvocations() - before;
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  return hashes;
}

TEST(VerifyHashParityTest, ImageProof) {
  EXPECT_EQ(VerifyHashes(core::Config::ImageProof()), 912u);
}

TEST(VerifyHashParityTest, OptimizedBovwPartialReveals) {
  size_t partial = 0;
  EXPECT_EQ(VerifyHashes(core::Config::OptimizedBovw(), &partial), 1114u);
  EXPECT_GT(partial, 0u);
}

TEST(VerifyHashParityTest, BaselinePerQueryStreams) {
  EXPECT_EQ(VerifyHashes(core::Config::Baseline()), 1348u);
}

// Digests of one honest VerifyComposite at `num_shards`, split into the
// one BoVW section, the inverted-only entries, and the rest (the manifest).
struct CompositeHashes {
  uint64_t total = 0;
  uint64_t bovw = 0;
  uint64_t entries = 0;
};

CompositeHashes CountCompositeHashes(uint32_t num_shards) {
  CompositeHashes out;
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  Corpus c = MakeCorpus(120, 96, 12, 21);
  auto features =
      workload::FeaturesFromBovw(c.codebook, c.images[3].second, 24, 0.2, 0.1,
                                 99);
  shard::ShardedDeployment dep = shard::ShardPlanner::Build(
      config, c.codebook, c.images, c.blobs, num_shards);
  core::PublicParams params = dep.shards[0].public_params;
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (core::OwnerOutput& s : dep.shards) {
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::shared_ptr<const core::SpPackage>(std::move(s.package)),
        s.public_params, dep.keys.private_key));
  }
  shard::Coordinator coordinator(std::move(backends), dep.manifest,
                                 dep.keys.private_key,
                                 shard::CoordinatorOptions{});
  Result<Bytes> composite = coordinator.Query(features, 5);
  EXPECT_TRUE(composite.ok()) << composite.status().message();
  if (!composite.ok()) return out;

  shard::CompositeClient client(params);
  uint64_t before = crypto::HashInvocations();
  auto verified = client.VerifyComposite(features, 5, *composite);
  out.total = crypto::HashInvocations() - before;
  EXPECT_TRUE(verified.ok()) << verified.status().message();

  // The same checks, section by section.
  shard::CompositeVO vo;
  EXPECT_TRUE(shard::CompositeVO::Deserialize(*composite, &vo).ok());
  core::Client bovw_client(params);
  before = crypto::HashInvocations();
  auto bovw = bovw_client.VerifyBovwSection(features, vo.bovw);
  out.bovw = crypto::HashInvocations() - before;
  EXPECT_TRUE(bovw.ok());
  if (!bovw.ok()) return out;
  for (const shard::CompositeEntry& e : vo.entries) {
    core::QueryVO entry;
    EXPECT_TRUE(core::QueryVO::Deserialize(e.vo_bytes, &entry).ok());
    core::PublicParams shard_params = params;
    shard_params.root_signature = e.root_signature;
    core::Client entry_client(shard_params);
    before = crypto::HashInvocations();
    EXPECT_TRUE(entry_client.VerifyEntry(*bovw, 5, entry).ok());
    out.entries += crypto::HashInvocations() - before;
  }
  return out;
}

TEST(VerifyHashParityTest, Composite) {
  EXPECT_EQ(CountCompositeHashes(2).total, 454u);
}

// The BoVW encoding is replayed once per composite whatever the fan-out:
// going from 1 to 4 shards adds inverted-section hashes only.
TEST(VerifyHashParityTest, CompositeReplaysBovwOnce) {
  const CompositeHashes one = CountCompositeHashes(1);
  const CompositeHashes four = CountCompositeHashes(4);
  EXPECT_EQ(one.bovw, four.bovw);
  EXPECT_EQ(one.total - one.bovw - one.entries,
            four.total - four.bovw - four.entries);
  EXPECT_EQ(four.total - one.total, four.entries - one.entries);
  EXPECT_EQ(four.bovw, 279u);
  EXPECT_EQ(one.total, 403u);
  EXPECT_EQ(four.total, 546u);
}

}  // namespace
}  // namespace imageproof
