// Tests for deployment persistence through the in-memory form of the .ipk
// codec (storage/serializer.h): a loaded package must answer queries whose
// VOs verify against the ORIGINAL owner's signature (bit-identical ADS
// digests), and malformed stored data must be rejected cleanly.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/client.h"
#include "core/server.h"
#include "core/update.h"
#include "storage/file_io.h"
#include "storage/package_store.h"
#include "storage/serializer.h"
#include "test_dir.h"
#include "workload/synthetic.h"

namespace imageproof::storage {
namespace {

core::OwnerOutput BuildSmallDeployment(core::Config config, uint64_t seed = 3) {
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 200;
  cp.num_clusters = 96;
  cp.min_distinct = 4;
  cp.max_distinct = 14;
  cp.seed = seed;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 96;
  cbp.dims = 12;
  cbp.seed = seed + 1;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs), seed + 2);
}

class StorageSchemeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StorageSchemeTest, RoundTripPreservesSignedDigests) {
  core::Config config = std::string(GetParam()) == "ImageProof"
                            ? core::Config::ImageProof()
                            : core::Config::OptimizedBoth();
  core::OwnerOutput owner = BuildSmallDeployment(config);

  Bytes blob = SerializeSpPackage(*owner.package);
  auto loaded = DeserializeSpPackage(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  // Bit-identical ADS: the loaded package's root digest matches the
  // original signature.
  EXPECT_EQ((*loaded)->RootDigest(), owner.package->RootDigest());

  // A query served from the LOADED package verifies against the ORIGINAL
  // public parameters.
  core::ServiceProvider sp(loaded->get());
  core::Client client(owner.public_params);
  auto features = workload::GenerateQueryFeatures(
      (*loaded)->codebook, 20, 0.3, 42);
  core::QueryResponse resp = sp.Query(features, 5);
  auto verified = client.Verify(features, 5, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

INSTANTIATE_TEST_SUITE_P(Schemes, StorageSchemeTest,
                         ::testing::Values("ImageProof", "OptimizedBoth"));

TEST(StorageTest, PublicParamsRoundTrip) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  Bytes blob = SerializePublicParams(owner.public_params);
  auto loaded = DeserializePublicParams(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->public_key.n.ToHex(), owner.public_params.public_key.n.ToHex());
  EXPECT_EQ(loaded->public_key.e.ToHex(), owner.public_params.public_key.e.ToHex());
  EXPECT_EQ(loaded->root_signature, owner.public_params.root_signature);
  EXPECT_EQ(loaded->dims, owner.public_params.dims);
  EXPECT_EQ(loaded->num_clusters, owner.public_params.num_clusters);
  EXPECT_EQ(loaded->config.Name(), owner.public_params.config.Name());

  // A client constructed purely from the loaded params works.
  core::ServiceProvider sp(owner.package.get());
  core::Client client(*loaded);
  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 15, 0.3, 7);
  core::QueryResponse resp = sp.Query(features, 3);
  EXPECT_TRUE(client.Verify(features, 3, resp.vo).ok());
}

// A modulus shorter than the signature encoding (kRsaMinModulusBytes) can
// verify nothing, so params.bin carrying one is corrupt, not a usable key.
TEST(StorageTest, ShortModulusParamsRejected) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  Rng rng(5);
  for (int bits : {0, 256, 8 * static_cast<int>(crypto::kRsaMinModulusBytes - 1)}) {
    core::PublicParams params = owner.public_params;
    params.public_key.n =
        bits == 0 ? crypto::BigInt() : crypto::BigInt::RandomWithBits(bits, rng);
    auto loaded = DeserializePublicParams(SerializePublicParams(params));
    ASSERT_FALSE(loaded.ok()) << bits;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupted) << bits;
  }
}

// A written .ipk file loads eagerly into memory through the same decoder.
TEST(StorageTest, FileRoundTrip) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  test_util::TestDir tmp;
  std::string pkg_path = tmp.File("imageproof_pkg.ipk");
  std::string params_path = tmp.File("imageproof_params.bin");
  ASSERT_TRUE(PackageStore::Write(pkg_path, *owner.package).ok());
  ASSERT_TRUE(SavePublicParams(params_path, owner.public_params).ok());
  Bytes file;
  ASSERT_TRUE(ReadFileBytes(pkg_path, &file).ok());
  auto pkg = DeserializeSpPackage(file);
  ASSERT_TRUE(pkg.ok()) << pkg.status().message();
  auto params = LoadPublicParams(params_path);
  ASSERT_TRUE(params.ok()) << params.status().message();
  EXPECT_EQ((*pkg)->RootDigest(), owner.package->RootDigest());
}

TEST(StorageTest, MalformedInputsRejected) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  Bytes blob = SerializeSpPackage(*owner.package);

  EXPECT_FALSE(DeserializeSpPackage({}).ok());
  Bytes bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeSpPackage(bad_magic).ok());
  Bytes truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_FALSE(DeserializeSpPackage(truncated).ok());
  Bytes trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(DeserializeSpPackage(trailing).ok());
}

TEST(StorageTest, RandomCorruptionNeverCrashes) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  Bytes blob = SerializeSpPackage(*owner.package);
  Rng rng(5);
  int loaded_ok = 0;
  for (int t = 0; t < 50; ++t) {
    Bytes tampered = blob;
    // A burst of corruption at a random position.
    size_t pos = rng.NextBounded(tampered.size());
    for (size_t i = pos; i < std::min(tampered.size(), pos + 8); ++i) {
      tampered[i] = static_cast<uint8_t>(rng.NextU64());
    }
    auto result = DeserializeSpPackage(tampered);  // must not crash
    if (result.ok()) {
      ++loaded_ok;
      // Even if structurally parseable, the ADS digests diverge, so the
      // owner's signature would catch it downstream. Just ensure the
      // object is usable.
      EXPECT_GT((*result)->corpus.size(), 0u);
    }
  }
  // Every byte of the image is digest- or zero-checked, so corruption
  // anywhere is caught at decode time. The real property under test is
  // "never crashes"; just ensure the decoder rejects the damage.
  EXPECT_LT(loaded_ok, 45);
}

TEST(StorageTest, UpdatedDeploymentSurvivesPersistence) {
  // Regression: incremental updates freeze the tf-idf weights; a load that
  // re-derived weights from the (grown) corpus would diverge from the
  // re-signed root. The stored weights must win.
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  bovw::BovwVector v = owner.package->corpus[2].second;
  const bovw::ImageId new_id = 777777;
  auto stats =
      core::InsertImage(owner.package.get(), owner.private_key,
                        &owner.public_params, new_id, v,
                        workload::GenerateImageBlob(new_id));
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  Bytes blob = SerializeSpPackage(*owner.package);
  auto loaded = DeserializeSpPackage(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->RootDigest(), owner.package->RootDigest());

  core::ServiceProvider sp(loaded->get());
  core::Client client(owner.public_params);
  auto features = workload::FeaturesFromBovw((*loaded)->codebook, v, 20, 0.2,
                                             0.0, 11);
  core::QueryResponse resp = sp.Query(features, 3);
  auto verified = client.Verify(features, 3, resp.vo);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  bool found = false;
  for (const auto& si : verified->topk) found |= (si.id == new_id);
  EXPECT_TRUE(found) << "inserted image retrievable after reload";
}

TEST(StorageTest, MissingFile) {
  EXPECT_FALSE(PackageStore::Open("/nonexistent/path/pkg.ipk").ok());
  EXPECT_FALSE(LoadPublicParams("/nonexistent/path/params.bin").ok());
}

}  // namespace
}  // namespace imageproof::storage
