// Deterministic byte-mutation fuzzing of every untrusted deserialization
// surface: QueryVO, composite VO, SpPackage, and PublicParams wire bytes —
// plus the on-disk package-store format — are truncated, bit-flipped,
// spliced, and garbled thousands of times per run, and every mutant must
// either parse cleanly (and then fail verification, not crash) or return
// kCorrupted.
// The CI ASan job re-runs this harness with a larger IMAGEPROOF_FUZZ_ITERS
// to lock in "no UB on hostile input" — the default here already exceeds
// 5000 mutated inputs across the surfaces.
//
// Everything is seeded: a failure reproduces with the same iteration index.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/random.h"
#include "common/varint_kernels.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "core/vo.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/planner.h"
#include "storage/package_store.h"
#include "storage/serializer.h"
#include "test_dir.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

size_t FuzzIters() {
  // Total mutated inputs across all three surfaces (split evenly). The env
  // override lets CI crank the count without recompiling.
  if (const char* env = std::getenv("IMAGEPROOF_FUZZ_ITERS")) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 6000;
}

// One deterministic mutation of `base` (optionally splicing in bytes from
// `foreign`, a valid message of the same type from a different state).
Bytes Mutate(const Bytes& base, const Bytes& foreign, Rng& rng) {
  Bytes out = base;
  switch (rng.NextBounded(4)) {
    case 0: {  // truncate the tail
      if (!out.empty()) out.resize(rng.NextBounded(out.size()));
      break;
    }
    case 1: {  // flip 1..8 bits anywhere
      if (out.empty()) break;
      size_t flips = 1 + rng.NextBounded(8);
      for (size_t f = 0; f < flips; ++f) {
        out[rng.NextBounded(out.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 2: {  // splice: valid prefix of one message + suffix of another
      if (out.empty() || foreign.empty()) break;
      size_t cut = rng.NextBounded(out.size());
      size_t fcut = rng.NextBounded(foreign.size());
      out.resize(cut);
      out.insert(out.end(), foreign.begin() + fcut, foreign.end());
      break;
    }
    default: {  // overwrite a random run with garbage
      if (out.empty()) break;
      size_t start = rng.NextBounded(out.size());
      size_t len = 1 + rng.NextBounded(32);
      for (size_t i = start; i < out.size() && i < start + len; ++i) {
        out[i] = static_cast<uint8_t>(rng.NextU64());
      }
      break;
    }
  }
  return out;
}

class FuzzDeserTest : public ::testing::Test {
 protected:
  // A deliberately tiny deployment: thousands of package deserializations
  // must stay cheap, and small messages make truncations/splices land on
  // interesting boundaries more often.
  void SetUp() override {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 40;
    cp.num_clusters = 32;
    cp.seed = 5;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 32;
    cbp.dims = 8;
    owner_ = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                   std::move(corpus), std::move(blobs));

    core::ServiceProvider sp(owner_.package.get());
    features_ = workload::GenerateQueryFeatures(owner_.package->codebook, 6,
                                                0.3, 17);
    vo_bytes_ = sp.Query(features_, 3).vo.Serialize();
    auto foreign_features =
        workload::GenerateQueryFeatures(owner_.package->codebook, 6, 0.3, 91);
    foreign_vo_bytes_ = sp.Query(foreign_features, 3).vo.Serialize();

    pkg_bytes_ = storage::SerializeSpPackage(*owner_.package);
    // The foreign package: same config, different corpus, so splices are
    // structurally plausible but semantically inconsistent.
    cp.seed = 6;
    auto corpus2 = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs2;
    for (const auto& [id, v] : corpus2) {
      blobs2[id] = workload::GenerateImageBlob(id);
    }
    auto owner2 = core::BuildDeployment(config,
                                        workload::GenerateCodebook(cbp),
                                        std::move(corpus2), std::move(blobs2));
    foreign_pkg_bytes_ = storage::SerializeSpPackage(*owner2.package);

    params_bytes_ = storage::SerializePublicParams(owner_.public_params);
    foreign_params_bytes_ = storage::SerializePublicParams(owner2.public_params);
  }

  core::OwnerOutput owner_;
  std::vector<std::vector<float>> features_;
  Bytes vo_bytes_, foreign_vo_bytes_;
  Bytes pkg_bytes_, foreign_pkg_bytes_;
  Bytes params_bytes_, foreign_params_bytes_;
};

TEST_F(FuzzDeserTest, MutatedQueryVoNeverCrashes) {
  Rng rng(101);
  core::Client client(owner_.public_params);
  size_t parsed = 0, rejected = 0;
  const size_t iters = FuzzIters() / 3;
  for (size_t t = 0; t < iters; ++t) {
    Bytes mutant = Mutate(vo_bytes_, foreign_vo_bytes_, rng);
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(mutant, &vo);
    if (!s.ok()) {
      ++rejected;
      EXPECT_EQ(s.code(), StatusCode::kCorrupted)
          << "iteration " << t << ": " << s.message();
      continue;
    }
    ++parsed;
    // Structurally valid mutants must still be caught by verification
    // (unless the mutation was a no-op splice reproducing the original).
    auto verified = client.Verify(features_, 3, vo);
    if (mutant == vo_bytes_) {
      EXPECT_TRUE(verified.ok());
    }
  }
  // The mutator must exercise both parser rejection and the verify path.
  EXPECT_GT(rejected, iters / 10);
  EXPECT_GT(parsed, 0u);
}

TEST_F(FuzzDeserTest, MutatedPackageNeverCrashes) {
  Rng rng(202);
  size_t parsed = 0, rejected = 0;
  const size_t iters = FuzzIters() / 3;
  for (size_t t = 0; t < iters; ++t) {
    Bytes mutant = Mutate(pkg_bytes_, foreign_pkg_bytes_, rng);
    auto pkg = storage::DeserializeSpPackage(mutant);
    if (!pkg.ok()) {
      ++rejected;
      EXPECT_EQ(pkg.status().code(), StatusCode::kCorrupted)
          << "iteration " << t << ": " << pkg.status().message();
      continue;
    }
    ++parsed;
    // A package that parses is internally consistent (digests re-derived
    // from data); exercising the root digest must be safe.
    (void)(*pkg)->RootDigest();
  }
  EXPECT_GT(rejected, iters / 10);
}

TEST_F(FuzzDeserTest, MutatedPublicParamsNeverCrashes) {
  Rng rng(303);
  size_t rejected = 0;
  const size_t iters = FuzzIters() - 2 * (FuzzIters() / 3);
  for (size_t t = 0; t < iters; ++t) {
    Bytes mutant = Mutate(params_bytes_, foreign_params_bytes_, rng);
    auto params = storage::DeserializePublicParams(mutant);
    if (!params.ok()) {
      ++rejected;
      EXPECT_EQ(params.status().code(), StatusCode::kCorrupted)
          << "iteration " << t << ": " << params.status().message();
    }
  }
  EXPECT_GT(rejected, iters / 10);
}

// The on-disk store is a hostile-input surface like any other: a served
// package directory could be swapped by anyone with filesystem access.
// Mutants of a valid .ipk file must never crash Open — they either fail
// kCorrupted or (rare no-op mutations aside) open into a package whose
// mapped state still verifies as internally consistent.
TEST_F(FuzzDeserTest, MutatedStoreFileNeverCrashes) {
  test_util::TestDir tmp;
  std::string base_path = tmp.File("fuzz_store_base.ipk");
  storage::WriteOptions wo;
  wo.page_size = 64;  // small file => mutations hit every layout region
  ASSERT_TRUE(storage::PackageStore::Write(base_path, *owner_.package, wo).ok());
  Bytes base;
  {
    FILE* f = std::fopen(base_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      base.insert(base.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  // A structurally plausible foreign file for splices: same page size,
  // different deployment — decoded from the foreign in-memory image.
  auto foreign_pkg = storage::DeserializeSpPackage(foreign_pkg_bytes_);
  ASSERT_TRUE(foreign_pkg.ok());
  std::string foreign_path = tmp.File("fuzz_store_foreign.ipk");
  ASSERT_TRUE(
      storage::PackageStore::Write(foreign_path, **foreign_pkg, wo).ok());
  Bytes foreign;
  {
    FILE* f = std::fopen(foreign_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      foreign.insert(foreign.end(), buf, buf + n);
    }
    std::fclose(f);
  }

  storage::OpenOptions opts;
  opts.params = &owner_.public_params;
  opts.deep_verify = true;  // also drag every payload through its digest
  std::string mutant_path = tmp.File("fuzz_store_mutant.ipk");
  Rng rng(404);
  size_t parsed = 0, rejected = 0;
  const size_t iters = FuzzIters() / 3;
  for (size_t t = 0; t < iters; ++t) {
    Bytes mutant = Mutate(base, foreign, rng);
    FILE* f = std::fopen(mutant_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!mutant.empty()) {
      ASSERT_EQ(std::fwrite(mutant.data(), 1, mutant.size(), f),
                mutant.size());
    }
    std::fclose(f);
    auto pkg = storage::PackageStore::Open(mutant_path, opts);
    if (!pkg.ok()) {
      ++rejected;
      EXPECT_EQ(pkg.status().code(), StatusCode::kCorrupted)
          << "iteration " << t << ": " << pkg.status().message();
      continue;
    }
    ++parsed;
    // An accepted mutant passed the full digest/signature chain, so it must
    // BE the original state.
    EXPECT_EQ((*pkg)->RootDigest(), owner_.package->RootDigest())
        << "iteration " << t;
  }
  EXPECT_GT(rejected, iters / 2);
}

// Exhaustive single-byte coverage on top of the randomized sweeps: every
// strict prefix of the VO must be rejected (no truncation point may crash
// or verify), mirroring the serializer-level cap audit.
// ---------------------------------------------------------------------------
// Group-varint coding layer (common/varint_kernels.h): the compressed VO's
// integer substrate. Canonical round-trip over every small length and the
// byte-length boundary values, and rejection (kCorrupted, never a wild
// read) of every truncation.
// ---------------------------------------------------------------------------

TEST(GroupVarintFuzzTest, RoundTripAllLengthsAndBoundaryValues) {
  const uint32_t boundaries[] = {0,          1,          0xFFu,      0x100u,
                                 0xFFFFu,    0x10000u,   0xFFFFFFu,  0x1000000u,
                                 0xFFFFFFFFu};
  Rng rng(4242);
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<uint32_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      // Mix boundary values with random ones so every 2-bit length code
      // appears in every quad position across the sweep.
      values[i] = (rng.NextBounded(2) == 0)
                      ? boundaries[rng.NextBounded(std::size(boundaries))]
                      : static_cast<uint32_t>(rng.NextU64());
    }
    ByteWriter w;
    kern::GroupVarintEncode(values.data(), n, w);
    Bytes encoded = w.Take();
    EXPECT_EQ(encoded.size(), kern::GroupVarintEncodedBytes(values.data(), n));
    std::vector<uint32_t> decoded(n, 0xDEADBEEFu);
    ByteReader r(encoded);
    ASSERT_TRUE(kern::GroupVarintDecode(r, n, decoded.data()).ok())
        << "length " << n;
    EXPECT_EQ(r.remaining(), 0u) << "length " << n;
    EXPECT_EQ(decoded, values) << "length " << n;
  }
}

TEST(GroupVarintFuzzTest, EveryTruncationRejected) {
  Rng rng(777);
  std::vector<uint32_t> values(37);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextU64());
  ByteWriter w;
  kern::GroupVarintEncode(values.data(), values.size(), w);
  Bytes encoded = w.Take();
  std::vector<uint32_t> out(values.size());
  for (size_t len = 0; len < encoded.size(); ++len) {
    Bytes prefix(encoded.begin(), encoded.begin() + len);
    ByteReader r(prefix);
    Status s = kern::GroupVarintDecode(r, values.size(), out.data());
    EXPECT_FALSE(s.ok()) << "truncation to " << len << " bytes decoded";
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kCorrupted);
    }
  }
}

// Exhaustive single-bit-flip scan over a complete compressed VO: every
// flipped bit must yield a parse error or a verification failure — or, if
// it verifies (e.g. a bit with no semantic weight), the verified results
// must be identical to the honest ones. A flip may never be silently
// accepted with different results.
TEST_F(FuzzDeserTest, CompressedVoExhaustiveBitFlipScan) {
  core::ServiceProvider sp(owner_.package.get());
  core::ServeOptions serve;
  serve.compress_vo = true;
  core::QueryResponse resp;
  core::QueryControl control;
  ASSERT_TRUE(sp.Query(features_, 3, core::QueryParallelism{}, control, serve,
                       &resp)
                  .ok());
  Bytes honest = resp.vo.Serialize();
  core::Client client(owner_.public_params);
  auto honest_verified = client.Verify(features_, 3, resp.vo);
  ASSERT_TRUE(honest_verified.ok());
  std::vector<bovw::ImageId> honest_ids;
  for (const auto& si : honest_verified->topk) honest_ids.push_back(si.id);

  size_t rejected = 0, neutral = 0;
  for (size_t byte = 0; byte < honest.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutant = honest;
      mutant[byte] ^= static_cast<uint8_t>(1u << bit);
      core::QueryVO vo;
      if (!core::QueryVO::Deserialize(mutant, &vo).ok()) {
        ++rejected;
        continue;
      }
      auto verified = client.Verify(features_, 3, vo);
      if (!verified.ok()) {
        ++rejected;
        continue;
      }
      ++neutral;
      std::vector<bovw::ImageId> ids;
      for (const auto& si : verified->topk) ids.push_back(si.id);
      EXPECT_EQ(ids, honest_ids)
          << "bit " << bit << " of byte " << byte
          << " verified with different results";
    }
  }
  EXPECT_GT(rejected, 0u);
  // Nearly every bit of the VO is digest- or structure-bound; a handful of
  // semantically-inert bits (e.g. image payload bytes are covered by their
  // own signatures, so this stays 0 in practice) may verify identically,
  // but they can never be the majority.
  EXPECT_LT(neutral, rejected / 100 + 8);
}

TEST_F(FuzzDeserTest, MutatedCompressedVoNeverCrashes) {
  core::ServiceProvider sp(owner_.package.get());
  core::ServeOptions serve;
  serve.compress_vo = true;
  core::QueryResponse resp;
  core::QueryResponse foreign_resp;
  core::QueryControl control;
  ASSERT_TRUE(sp.Query(features_, 3, core::QueryParallelism{}, control, serve,
                       &resp)
                  .ok());
  auto foreign_features =
      workload::GenerateQueryFeatures(owner_.package->codebook, 6, 0.3, 92);
  ASSERT_TRUE(sp.Query(foreign_features, 3, core::QueryParallelism{}, control,
                       serve, &foreign_resp)
                  .ok());
  Bytes compressed = resp.vo.Serialize();
  Bytes foreign = foreign_resp.vo.Serialize();

  Rng rng(505);
  core::Client client(owner_.public_params);
  size_t parsed = 0, rejected = 0;
  const size_t iters = FuzzIters() / 3;
  for (size_t t = 0; t < iters; ++t) {
    Bytes mutant = Mutate(compressed, foreign, rng);
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(mutant, &vo);
    if (!s.ok()) {
      ++rejected;
      EXPECT_EQ(s.code(), StatusCode::kCorrupted)
          << "iteration " << t << ": " << s.message();
      continue;
    }
    ++parsed;
    auto verified = client.Verify(features_, 3, vo);
    if (mutant == compressed) {
      EXPECT_TRUE(verified.ok());
    }
  }
  EXPECT_GT(rejected, iters / 10);
  EXPECT_GT(parsed, 0u);
}

TEST_F(FuzzDeserTest, EveryVoPrefixRejectedCleanly) {
  core::Client client(owner_.public_params);
  for (size_t len = 0; len < vo_bytes_.size(); ++len) {
    Bytes prefix(vo_bytes_.begin(), vo_bytes_.begin() + len);
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(prefix, &vo);
    if (s.ok()) {
      EXPECT_FALSE(client.Verify(features_, 3, vo).ok())
          << "strict prefix of length " << len << " verified";
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorrupted);
    }
  }
}

// Composite VOs of a tiny two-shard deployment: every mutant must fail to
// decode (kCorrupted) or fail VerifyComposite — or, where it only touched
// bytes nothing authenticates (an entry's advisory snapshot_version), verify
// to exactly the honest merged answer.
TEST(CompositeFuzzTest, MutatedCompositeNeverCrashesNorMisverifies) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 40;
  cp.num_clusters = 32;
  cp.seed = 5;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) {
    blobs[id] = workload::GenerateImageBlob(id);
  }
  workload::CodebookParams cbp;
  cbp.num_clusters = 32;
  cbp.dims = 8;
  ann::PointSet codebook = workload::GenerateCodebook(cbp);
  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(config, codebook, corpus, blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (core::OwnerOutput& s : dep.shards) {
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::shared_ptr<const core::SpPackage>(std::move(s.package)),
        s.public_params, dep.keys.private_key));
  }
  shard::Coordinator coord(std::move(backends), dep.manifest,
                           dep.keys.private_key, {});
  auto features = workload::GenerateQueryFeatures(codebook, 6, 0.3, 17);
  auto foreign_features = workload::GenerateQueryFeatures(codebook, 6, 0.3, 91);
  Result<Bytes> honest = coord.Query(features, 3);
  Result<Bytes> foreign = coord.Query(foreign_features, 3);
  ASSERT_TRUE(honest.ok() && foreign.ok());
  shard::CompositeClient client(base);
  auto baseline = client.VerifyComposite(features, 3, *honest);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  Rng rng(303);
  size_t parsed = 0, rejected = 0;
  const size_t iters = FuzzIters() / 6;
  for (size_t t = 0; t < iters; ++t) {
    Bytes mutant = Mutate(*honest, *foreign, rng);
    shard::CompositeVO vo;
    Status s = shard::CompositeVO::Deserialize(mutant, &vo);
    if (!s.ok()) {
      ++rejected;
      EXPECT_EQ(s.code(), StatusCode::kCorrupted)
          << "iteration " << t << ": " << s.message();
      continue;
    }
    ++parsed;
    auto got = client.VerifyComposite(features, 3, mutant);
    if (!got.ok()) continue;
    ASSERT_EQ(got->topk.size(), baseline->topk.size()) << "iteration " << t;
    for (size_t i = 0; i < got->topk.size(); ++i) {
      EXPECT_EQ(got->topk[i].id, baseline->topk[i].id) << "iteration " << t;
      EXPECT_EQ(got->topk[i].score, baseline->topk[i].score);
    }
    EXPECT_EQ(got->images, baseline->images) << "iteration " << t;
  }
  EXPECT_GT(rejected, iters / 10);
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace imageproof
