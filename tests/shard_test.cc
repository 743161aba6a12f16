// Sharded scatter-gather serving tests: manifest/composite codecs, the
// golden merge identity (merged output byte-identical across shard counts
// AND fan-out thread counts, and equal to the unsharded settled serve),
// update isolation (one shard epoch-swaps under live query load), the
// one-epoch freshness window, the remote (wire) composite path, and
// persistence round-trips. Adversarial composite mutations live in
// security_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "crypto/hasher.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/composite.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/manifest.h"
#include "shard/planner.h"
#include "storage/file_io.h"
#include "storage/serializer.h"
#include "test_dir.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

void FlipByte(const std::string& path, size_t offset, uint8_t mask = 0xFF) {
  Bytes data;
  ASSERT_TRUE(storage::ReadFileBytes(path, &data).ok());
  ASSERT_LT(offset, data.size());
  data[offset] ^= mask;
  ASSERT_TRUE(storage::AtomicWriteFile(path, data).ok());
}

crypto::Digest DigestOf(const char* s) {
  crypto::DigestBuilder b;
  b.AddString(s);
  return b.Finalize();
}

// ---------------------------------------------------------------------------
// Manifest codec + signature
// ---------------------------------------------------------------------------

shard::ShardManifest MakeManifest() {
  shard::ShardManifest m;
  m.num_shards = 2;
  m.epoch = 7;
  m.shards.resize(2);
  m.shards[0].current = DigestOf("root-0");
  m.shards[0].current_signature = Bytes{1, 2, 3};
  m.shards[1].current = DigestOf("root-1b");
  m.shards[1].current_signature = Bytes{4, 5};
  m.shards[1].has_prev = true;
  m.shards[1].prev = DigestOf("root-1a");
  m.shards[1].prev_signature = Bytes{6};
  return m;
}

TEST(ShardManifestTest, SignSerializeRoundTrip) {
  Rng rng(42);
  crypto::RsaKeyPair keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m = MakeManifest();
  m.Sign(keys.private_key);
  EXPECT_TRUE(m.VerifySignature(keys.public_key));

  shard::ShardManifest out;
  ASSERT_TRUE(shard::ShardManifest::Deserialize(m.Serialize(), &out).ok());
  EXPECT_TRUE(out.VerifySignature(keys.public_key));
  EXPECT_EQ(out.num_shards, 2u);
  EXPECT_EQ(out.epoch, 7u);
  ASSERT_EQ(out.shards.size(), 2u);
  EXPECT_TRUE(out.shards[0].Allows(DigestOf("root-0")));
  EXPECT_FALSE(out.shards[0].Allows(DigestOf("root-1b")));
  EXPECT_TRUE(out.shards[1].Allows(DigestOf("root-1b")));
  EXPECT_TRUE(out.shards[1].Allows(DigestOf("root-1a")));  // one-epoch window
  EXPECT_FALSE(out.shards[1].Allows(DigestOf("root-0")));
  EXPECT_EQ(out.shards[1].prev_signature, Bytes{6});

  // Any field edit breaks the signature.
  out.epoch = 8;
  EXPECT_FALSE(out.VerifySignature(keys.public_key));
  out.epoch = 7;
  EXPECT_TRUE(out.VerifySignature(keys.public_key));
  out.shards[1].has_prev = false;
  EXPECT_FALSE(out.VerifySignature(keys.public_key));
}

TEST(ShardManifestTest, DecoderHardened) {
  Rng rng(43);
  crypto::RsaKeyPair keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m = MakeManifest();
  m.Sign(keys.private_key);
  const Bytes good = m.Serialize();
  shard::ShardManifest out;
  ASSERT_TRUE(shard::ShardManifest::Deserialize(good, &out).ok());

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(shard::ShardManifest::Deserialize(trailing, &out).code(),
            StatusCode::kCorrupted);

  for (size_t len = 0; len < good.size(); ++len) {
    Bytes cut(good.begin(), good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(shard::ShardManifest::Deserialize(cut, &out).ok())
        << "truncation to " << len << " bytes accepted";
  }

  // Single-byte corruption either fails to decode or decodes to a manifest
  // whose owner signature no longer verifies — never crashes, never yields
  // an authentic-looking manifest.
  for (size_t i = 0; i < good.size(); ++i) {
    Bytes mut = good;
    mut[i] ^= 0xFF;
    shard::ShardManifest decoded;
    if (shard::ShardManifest::Deserialize(mut, &decoded).ok()) {
      EXPECT_FALSE(decoded.VerifySignature(keys.public_key))
          << "byte " << i << " flip kept the signature valid";
    }
  }

  // A zero-shard manifest is structurally invalid.
  shard::ShardManifest empty;
  empty.signature = Bytes{1};
  EXPECT_EQ(shard::ShardManifest::Deserialize(empty.Serialize(), &out).code(),
            StatusCode::kCorrupted);
}

TEST(ShardManifestTest, SaveLoadAndTamper) {
  Rng rng(44);
  crypto::RsaKeyPair keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m = MakeManifest();
  m.Sign(keys.private_key);
  test_util::TestDir tmp;
  const std::string path = tmp.File("shard_manifest_roundtrip");
  ASSERT_TRUE(shard::SaveManifest(path, m).ok());
  Result<shard::ShardManifest> loaded = shard::LoadManifest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->VerifySignature(keys.public_key));
  EXPECT_EQ(loaded->Serialize(), m.Serialize());
}

// ---------------------------------------------------------------------------
// Composite codec
// ---------------------------------------------------------------------------

TEST(CompositeCodecTest, RoundTripAndHardened) {
  shard::CompositeVO vo;
  vo.manifest_bytes = Bytes{1, 2, 3, 4};
  vo.bovw.thresholds_sq = {0.5, 2.25};
  vo.bovw.reveal_section = Bytes{4, 4, 4};
  vo.bovw.tree_vos = {Bytes{1}, Bytes{2, 3}};
  vo.entries.push_back({0, 5, Bytes{7, 8}, Bytes{9}});
  vo.entries.push_back({1, 6, Bytes{}, Bytes{1, 2, 3}});
  const Bytes good = vo.Serialize();

  shard::CompositeVO out;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(good, &out).ok());
  EXPECT_EQ(out.manifest_bytes, vo.manifest_bytes);
  EXPECT_EQ(out.bovw.thresholds_sq, vo.bovw.thresholds_sq);
  EXPECT_EQ(out.bovw.reveal_section, vo.bovw.reveal_section);
  EXPECT_EQ(out.bovw.tree_vos, vo.bovw.tree_vos);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].shard_id, 0u);
  EXPECT_EQ(out.entries[0].snapshot_version, 5u);
  EXPECT_EQ(out.entries[0].root_signature, (Bytes{7, 8}));
  EXPECT_EQ(out.entries[1].vo_bytes, (Bytes{1, 2, 3}));

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(shard::CompositeVO::Deserialize(trailing, &out).code(),
            StatusCode::kCorrupted);

  for (size_t len = 0; len < good.size(); ++len) {
    Bytes cut(good.begin(), good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(shard::CompositeVO::Deserialize(cut, &out).ok());
  }

  shard::CompositeVO empty;
  empty.manifest_bytes = Bytes{1};
  EXPECT_EQ(shard::CompositeVO::Deserialize(empty.Serialize(), &out).code(),
            StatusCode::kCorrupted);

  // Any other format version is refused.
  for (uint32_t version : {0u, 2u, 4u}) {
    Bytes other = good;
    StoreU32(other.data() + 4, version);
    EXPECT_EQ(shard::CompositeVO::Deserialize(other, &out).code(),
              StatusCode::kCorrupted);
  }
}

// ---------------------------------------------------------------------------
// End-to-end sharded serving
// ---------------------------------------------------------------------------

struct TestData {
  core::Config config;
  ann::PointSet codebook;
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus;
  std::unordered_map<bovw::ImageId, Bytes> blobs;
};

TestData MakeData(size_t num_images = 120) {
  TestData d;
  d.config = core::Config::ImageProof();
  d.config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = 96;
  cp.min_distinct = 4;
  cp.max_distinct = 14;
  cp.seed = 11;
  d.corpus = workload::GenerateCorpus(cp);
  workload::CodebookParams cbp;
  cbp.num_clusters = 96;
  cbp.dims = 12;
  cbp.seed = 12;
  d.codebook = workload::GenerateCodebook(cbp);
  for (const auto& [id, v] : d.corpus) {
    d.blobs[id] = workload::GenerateImageBlob(id);
  }
  return d;
}

std::vector<std::vector<float>> QueryFeatures(const TestData& d) {
  // A query derived from image 3, so the top result set is stable and
  // spans shards (image 3's near-duplicate group has members on both sides
  // of any id-mod partition).
  return workload::FeaturesFromBovw(d.codebook, d.corpus[3].second, 24, 0.2,
                                    0.1, 99);
}

std::unique_ptr<shard::Coordinator> MakeCoordinator(
    shard::ShardedDeployment deployment, unsigned fanout_threads) {
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (core::OwnerOutput& s : deployment.shards) {
    std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::move(pkg), s.public_params, deployment.keys.private_key));
  }
  shard::CoordinatorOptions opts;
  opts.fanout_threads = fanout_threads;
  return std::make_unique<shard::Coordinator>(
      std::move(backends), deployment.manifest, deployment.keys.private_key,
      opts);
}

TEST(ShardServingTest, GoldenMergeByteIdentityAcrossLayouts) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const size_t k = 5;

  std::vector<bovw::ScoredImage> reference;
  std::vector<Bytes> reference_images;
  for (uint32_t shards : {1u, 2u, 4u}) {
    Bytes single_thread_bytes;
    for (unsigned threads : {1u, 4u}) {
      shard::ShardedDeployment dep = shard::ShardPlanner::Build(
          d.config, d.codebook, d.corpus, d.blobs, shards);
      const core::PublicParams base = dep.shards[0].public_params;
      std::unique_ptr<shard::Coordinator> coord =
          MakeCoordinator(std::move(dep), threads);
      Result<Bytes> r = coord->Query(features, k);
      ASSERT_TRUE(r.ok()) << shards << " shards: " << r.status().message();

      shard::CompositeClient client(base);
      Result<shard::CompositeVerifiedResults> v =
          client.VerifyComposite(features, k, *r);
      ASSERT_TRUE(v.ok()) << shards << " shards: " << v.status().message();
      EXPECT_EQ(v->num_shards, shards);
      ASSERT_EQ(v->topk.size(), v->images.size());
      for (const core::VerifiedResults& ps : v->per_shard) {
        EXPECT_TRUE(ps.topk_scores_exact);
      }

      // The composite BYTES are identical across fan-out thread counts:
      // parallelism must not leak into the proof.
      if (threads == 1u) {
        single_thread_bytes = *r;
      } else {
        EXPECT_EQ(single_thread_bytes, *r)
            << shards << " shards: composite bytes differ across thread "
            << "counts";
      }

      // The merged output is identical across shard counts.
      if (reference.empty()) {
        reference = v->topk;
        reference_images = v->images;
        ASSERT_EQ(reference.size(), k);
      } else {
        ASSERT_EQ(v->topk.size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(v->topk[i].id, reference[i].id) << "rank " << i;
          EXPECT_EQ(v->topk[i].score, reference[i].score) << "rank " << i;
          EXPECT_EQ(v->images[i], reference_images[i]) << "rank " << i;
        }
      }
    }
  }

  // And identical to the unsharded settled serve over the same corpus: the
  // frozen global idf weights make every per-image score independent of the
  // partition, so sharding is invisible in the verified answer.
  core::OwnerOutput owner =
      core::BuildDeployment(d.config, d.codebook, d.corpus, d.blobs);
  core::ServiceProvider sp(owner.package.get());
  core::ServeOptions serve;
  serve.settle_exact_topk = true;
  core::QueryResponse resp;
  ASSERT_TRUE(sp.Query(features, k, {}, {}, serve, &resp).ok());
  core::Client client(owner.public_params);
  Result<core::VerifiedResults> v = client.Verify(features, k, resp.vo);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_TRUE(v->topk_scores_exact);
  ASSERT_EQ(v->topk.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(v->topk[i].id, reference[i].id) << "rank " << i;
    EXPECT_EQ(v->topk[i].score, reference[i].score) << "rank " << i;
  }
}

TEST(ShardServingTest, UpdateIsolationUnderLoad) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const bovw::BovwVector duplicate = d.corpus[3].second;  // lives in shard 1

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::unique_ptr<shard::Coordinator> coord =
      MakeCoordinator(std::move(dep), 2);
  shard::CompositeClient client(base);
  EXPECT_TRUE(coord->ProbeAll().ok());

  // Live query load while one shard epoch-swaps: every completed query must
  // verify; the only acceptable failure is the kUnavailable double-swap
  // transient (which a single insert cannot even trigger — asserted below).
  std::atomic<bool> stop{false};
  std::atomic<int> verify_failures{0};
  std::atomic<int> verified{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        Result<Bytes> r = coord->Query(features, 5);
        if (!r.ok()) {
          if (r.status().code() != StatusCode::kUnavailable) {
            verify_failures.fetch_add(1);
          }
          continue;
        }
        Result<shard::CompositeVerifiedResults> v =
            client.VerifyComposite(features, 5, *r);
        if (v.ok()) {
          verified.fetch_add(1);
        } else {
          verify_failures.fetch_add(1);
        }
      }
    });
  }

  // Insert a cross-shard near-duplicate: id 1000 -> shard 0, byte-identical
  // BoVW to image 3 in shard 1.
  const bovw::ImageId new_id = 1000;
  Result<uint64_t> epoch =
      coord->Insert(new_id, duplicate, workload::GenerateImageBlob(new_id));
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  EXPECT_EQ(*epoch, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : load) t.join();
  EXPECT_EQ(verify_failures.load(), 0);
  EXPECT_GT(verified.load(), 0);

  // Post-swap composite: the new image appears in the merged top-k with a
  // score exactly equal to its shard-1 twin (frozen weights), the tie
  // broken by ascending id.
  Result<Bytes> r = coord->Query(features, 6);
  ASSERT_TRUE(r.ok()) << r.status().message();
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, 6, *r);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->manifest_epoch, 1u);
  size_t pos3 = v->topk.size(), pos1000 = v->topk.size();
  for (size_t i = 0; i < v->topk.size(); ++i) {
    if (v->topk[i].id == 3) pos3 = i;
    if (v->topk[i].id == new_id) pos1000 = i;
  }
  ASSERT_LT(pos3, v->topk.size());
  ASSERT_LT(pos1000, v->topk.size());
  EXPECT_EQ(v->topk[pos3].score, v->topk[pos1000].score);
  EXPECT_LT(pos3, pos1000);
}

TEST(ShardServingTest, FreshnessWindowIsExactlyOneEpoch) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::unique_ptr<shard::Coordinator> coord =
      MakeCoordinator(std::move(dep), 2);
  shard::CompositeClient client(base);

  Result<Bytes> r_old = coord->Query(features, 5);
  ASSERT_TRUE(r_old.ok());
  shard::CompositeVO old_vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r_old, &old_vo).ok());

  // One update to shard 0 (ids 1000, 1002 are even).
  ASSERT_TRUE(coord
                  ->Insert(1000, d.corpus[5].second,
                           workload::GenerateImageBlob(1000))
                  .ok());
  Result<Bytes> r_new = coord->Query(features, 5);
  ASSERT_TRUE(r_new.ok());
  shard::CompositeVO new_vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r_new, &new_vo).ok());

  // A fan-out racing the swap legitimately carries shard 0's pre-update
  // response next to the post-update manifest; the prev digest accepts it.
  shard::CompositeVO mixed = new_vo;
  mixed.entries[0] = old_vo.entries[0];
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, 5, mixed.Serialize());
  EXPECT_TRUE(v.ok()) << v.status().message();

  // A second update pushes the original root out of the window: the same
  // splice is now a rollback attempt and must be rejected.
  ASSERT_TRUE(coord
                  ->Insert(1002, d.corpus[7].second,
                           workload::GenerateImageBlob(1002))
                  .ok());
  Result<Bytes> r_latest = coord->Query(features, 5);
  ASSERT_TRUE(r_latest.ok());
  shard::CompositeVO latest;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r_latest, &latest).ok());
  shard::CompositeVO stale = latest;
  stale.entries[0] = old_vo.entries[0];
  Result<shard::CompositeVerifiedResults> rejected =
      client.VerifyComposite(features, 5, stale.Serialize());
  EXPECT_FALSE(rejected.ok());
}

TEST(ShardServingTest, RemoteCompositeServingOverTheWire) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const size_t k = 5;

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;

  // Local reference: the same deployment served in-process.
  shard::ShardedDeployment dep_local = shard::ShardPlanner::Build(
      d.config, d.codebook, d.corpus, d.blobs, 2);
  std::unique_ptr<shard::Coordinator> local =
      MakeCoordinator(std::move(dep_local), 2);
  Result<Bytes> local_bytes = local->Query(features, k);
  ASSERT_TRUE(local_bytes.ok());

  // One NetServer per shard, each serving settled queries.
  std::vector<std::unique_ptr<core::QueryEngine>> engines;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<core::PublicParams> shard_params;
  for (core::OwnerOutput& s : dep.shards) {
    std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
    engines.push_back(
        std::make_unique<core::QueryEngine>(std::move(pkg), s.public_params));
    net::ServerOptions so;
    so.settle_exact_topk = true;
    servers.push_back(
        std::make_unique<net::NetServer>(engines.back().get(), so));
    ASSERT_TRUE(servers.back()->Start().ok());
    shard_params.push_back(s.public_params);
  }

  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (size_t i = 0; i < servers.size(); ++i) {
    backends.push_back(std::make_unique<shard::RemoteShardBackend>(
        "127.0.0.1", servers[i]->port(), shard_params[i]));
  }
  shard::Coordinator coord(std::move(backends), dep.manifest,
                           dep.keys.private_key, {});
  EXPECT_TRUE(coord.ProbeAll().ok());

  // Front server: relays version-2 composite queries to the coordinator.
  net::NetServer front(engines[0].get(), {});
  front.EnableComposite([&coord](std::vector<std::vector<float>> f, size_t kk,
                                 bool compress, uint32_t deadline,
                                 std::function<void(Result<Bytes>)> done) {
    coord.QueryAsync(std::move(f), kk, compress, deadline, std::move(done));
  });
  ASSERT_TRUE(front.Start().ok());

  Result<net::NetClient> cli =
      net::NetClient::Connect("127.0.0.1", front.port(), base);
  ASSERT_TRUE(cli.ok()) << cli.status().message();
  Result<Bytes> r = cli->QueryComposite(features, k);
  ASSERT_TRUE(r.ok()) << r.status().message();

  shard::CompositeClient client(base);
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, k, *r);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->num_shards, 2u);
  for (const core::VerifiedResults& ps : v->per_shard) {
    EXPECT_TRUE(ps.topk_scores_exact);
  }

  // The wire path answers the same merged result as the in-process path.
  Result<shard::CompositeVerifiedResults> local_v =
      client.VerifyComposite(features, k, *local_bytes);
  ASSERT_TRUE(local_v.ok());
  ASSERT_EQ(v->topk.size(), local_v->topk.size());
  for (size_t i = 0; i < v->topk.size(); ++i) {
    EXPECT_EQ(v->topk[i].id, local_v->topk[i].id);
    EXPECT_EQ(v->topk[i].score, local_v->topk[i].score);
  }

  front.Stop();
}

TEST(ShardServingTest, PersistenceRoundTripAndManifestTamper) {
  test_util::TestDir tmp;  // outlives the engines mapping its epochs
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  const crypto::RsaKeyPair keys = dep.keys;

  const std::string dir = tmp.File("shard_persist");
  ASSERT_TRUE(shard::WriteShardedDeployment(dir, dep).ok());

  Result<shard::OpenedShardedDeployment> opened =
      shard::OpenShardedDeployment(dir, base);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_EQ(opened->shards.size(), 2u);
  EXPECT_EQ(opened->manifest.epoch, 0u);

  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (shard::OpenedShard& s : opened->shards) {
    std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::move(pkg), s.params, keys.private_key));
  }
  shard::Coordinator coord(std::move(backends), opened->manifest,
                           keys.private_key, {});
  Result<Bytes> r = coord.Query(features, 5);
  ASSERT_TRUE(r.ok()) << r.status().message();
  shard::CompositeClient client(base);
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, 5, *r);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->topk.size(), 5u);

  // A tampered MANIFEST (any byte) must refuse to open.
  FlipByte(dir + "/MANIFEST", 9);
  Result<shard::OpenedShardedDeployment> bad =
      shard::OpenShardedDeployment(dir, base);
  EXPECT_FALSE(bad.ok());
}

// One codebook piece per deployment: the planner builds it once for every
// shard, and a reopen decodes it from shard 0 and adopts it for the others.
// A shard whose codebook differs decodes its own piece and is rejected by
// the manifest's codebook root, even though its own file is signed and
// self-consistent.
TEST(ShardServingTest, ShardsShareOneCodebookPiece) {
  test_util::TestDir tmp;
  TestData d = MakeData();
  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 3);
  for (const core::OwnerOutput& s : dep.shards) {
    EXPECT_EQ(s.package->codebook_ads, dep.shards[0].package->codebook_ads);
  }
  const core::PublicParams base = dep.shards[0].public_params;
  const std::string dir = tmp.File("shard_codebook");
  ASSERT_TRUE(shard::WriteShardedDeployment(dir, dep).ok());

  Result<shard::OpenedShardedDeployment> opened =
      shard::OpenShardedDeployment(dir, base);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_EQ(opened->shards.size(), 3u);
  const core::CodebookAds* piece =
      opened->shards[0].package->codebook_ads.get();
  ASSERT_TRUE(piece->sections.has_value());
  for (const shard::OpenedShard& s : opened->shards) {
    EXPECT_EQ(s.package->codebook_ads.get(), piece);
    EXPECT_EQ(s.package->codebook.row(0), piece->points.row(0));
  }

  // Rebuild shard 1 over a codebook one coordinate away, sign it with the
  // deployment's key and re-sign the manifest to name its root.
  ann::PointSet other = d.codebook;
  other.row(5)[2] += 0.5f;
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> slice;
  std::unordered_map<bovw::ImageId, Bytes> slice_blobs;
  for (const auto& entry : d.corpus) {
    if (shard::ShardManifest::ShardOf(entry.first, 3) != 1) continue;
    slice.push_back(entry);
    slice_blobs[entry.first] = d.blobs.at(entry.first);
  }
  core::BuildOverrides overrides;
  overrides.keys = &dep.keys;
  overrides.codebook_ads =
      core::BuildCodebookAds(d.config, std::move(other), /*split=*/true);
  core::OwnerOutput forged =
      core::BuildDeployment(d.config, ann::PointSet(), std::move(slice),
                            std::move(slice_blobs), 0x5E5, overrides);
  ASSERT_NE(forged.package->ForestRoot(), dep.manifest.codebook_root);
  const std::string shard_dir = dir + "/" + shard::ShardDirName(1);
  ASSERT_TRUE(
      storage::PackageStore::WriteEpoch(shard_dir, 0, *forged.package).ok());
  shard::ShardManifest manifest = dep.manifest;
  manifest.shards[1].current = forged.package->RootDigest();
  manifest.shards[1].current_signature = forged.public_params.root_signature;
  manifest.Sign(dep.keys.private_key);
  ASSERT_TRUE(shard::SaveManifest(dir + "/MANIFEST", manifest).ok());

  Result<shard::OpenedShardedDeployment> rejected =
      shard::OpenShardedDeployment(dir, base);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorrupted);
  EXPECT_NE(rejected.status().message().find("codebook"), std::string::npos)
      << rejected.status().message();
}

TEST(ShardServingTest, BackendCountMismatchFailsEveryOperation) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 3);
  for (size_t count : {size_t{2}, size_t{4}}) {
    std::vector<std::unique_ptr<shard::ShardBackend>> backends;
    for (size_t i = 0; i < count; ++i) {
      const core::OwnerOutput& s = dep.shards[i % dep.shards.size()];
      Result<std::unique_ptr<core::SpPackage>> pkg = storage::
          DeserializeSpPackage(storage::SerializeSpPackage(*s.package));
      ASSERT_TRUE(pkg.ok());
      backends.push_back(std::make_unique<shard::LocalShardBackend>(
          std::shared_ptr<const core::SpPackage>(std::move(*pkg)),
          s.public_params, dep.keys.private_key));
    }
    shard::Coordinator coord(std::move(backends), dep.manifest,
                             dep.keys.private_key, {});
    EXPECT_EQ(coord.Query(features, 5).status().code(), StatusCode::kError)
        << count << " backends";
    // Ids of every residue, including the slot a short vector lacks.
    for (bovw::ImageId id : {900u, 901u, 902u}) {
      EXPECT_EQ(coord.Insert(id, d.corpus[0].second,
                             workload::GenerateImageBlob(id))
                    .status()
                    .code(),
                StatusCode::kError);
      EXPECT_EQ(coord.Delete(d.corpus[id % 3].first).status().code(),
                StatusCode::kError);
    }
    EXPECT_EQ(coord.ProbeAll().code(), StatusCode::kError);
    EXPECT_EQ(coord.CurrentManifest()->epoch, 0u);
  }
}

TEST(ShardServingTest, BovwProvenOnceOnSharedCodebookForest) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const size_t k = 5;
  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 3);
  for (const core::OwnerOutput& s : dep.shards) {
    ASSERT_TRUE(s.package->split_root());
    EXPECT_EQ(s.package->ForestRoot(), dep.manifest.codebook_root);
    EXPECT_EQ(s.package->RootDigest(),
              core::SplitRootDigest(dep.manifest.codebook_root,
                                    s.package->list_tree->root()));
  }
  // Distinct shards, distinct list roots.
  EXPECT_NE(dep.shards[0].package->RootDigest(),
            dep.shards[1].package->RootDigest());

  std::vector<shard::LocalShardBackend*> locals;
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  std::vector<std::shared_ptr<const core::SpPackage>> packages;
  for (core::OwnerOutput& s : dep.shards) {
    packages.emplace_back(std::move(s.package));
    auto b = std::make_unique<shard::LocalShardBackend>(
        packages.back(), s.public_params, dep.keys.private_key);
    locals.push_back(b.get());
    backends.push_back(std::move(b));
  }
  shard::Coordinator coord(std::move(backends), dep.manifest,
                           dep.keys.private_key, {});

  // The prover rotates across queries; the bytes must not tell which shard
  // proved the BoVW step.
  Result<Bytes> first = coord.Query(features, k);
  ASSERT_TRUE(first.ok()) << first.status().message();
  for (int i = 0; i < 3; ++i) {
    Result<Bytes> again = coord.Query(features, k);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first) << "query " << i;
  }
  shard::CompositeVO vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*first, &vo).ok());
  EXPECT_EQ(vo.bovw.tree_vos.size(),
            static_cast<size_t>(d.config.forest.num_trees));
  ASSERT_EQ(vo.entries.size(), 3u);
  for (uint32_t sid = 0; sid < 3; ++sid) {
    core::QueryVO entry;
    ASSERT_TRUE(core::QueryVO::Deserialize(vo.entries[sid].vo_bytes, &entry)
                    .ok());
    EXPECT_FALSE(entry.has_bovw_section());
    // A backend's own (unproven) encoding answers the same entry bytes.
    Result<shard::ShardQueryResult> own =
        locals[sid]->Query(features, k, false, 0);
    ASSERT_TRUE(own.ok());
    EXPECT_EQ(own->vo_bytes, vo.entries[sid].vo_bytes);
    // And a full split-root VO of the shard verifies on its own.
    core::ServiceProvider sp(packages[sid].get());
    core::ServeOptions serve;
    serve.settle_exact_topk = true;
    core::QueryResponse resp;
    ASSERT_TRUE(sp.Query(features, k, {}, {}, serve, &resp).ok());
    core::Client single(locals[sid]->engine().CurrentSnapshot()->params);
    auto verified = single.Verify(features, k, resp.vo);
    ASSERT_TRUE(verified.ok()) << verified.status().message();
    EXPECT_TRUE(dep.manifest.shards[sid].Allows(verified->root_digest));
  }

  // An update re-hashes one list-tree path per touched list, never the
  // shared forest, and the codebook root stays committed.
  const bovw::ImageId id = 3000;  // shard 0
  Result<core::UpdateStats> applied = locals[0]->engine().InsertImage(
      dep.keys.private_key, id, d.corpus[5].second,
      workload::GenerateImageBlob(id));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  const size_t path = 1 + 7;  // leaf + ceil(log2(96)) levels
  EXPECT_LE(applied->mrkd_nodes_rehashed, applied->lists_updated * path);
  auto snap = locals[0]->engine().CurrentSnapshot();
  EXPECT_EQ(snap->package->ForestRoot(), dep.manifest.codebook_root);
  EXPECT_NE(snap->package->RootDigest(), packages[0]->RootDigest());
}

}  // namespace
}  // namespace imageproof
