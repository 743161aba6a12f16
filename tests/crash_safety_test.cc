// Crash-safety suite for the disk store: a simulated power failure at
// every step of the epoch publish protocol (torn temp write, failed fsync,
// dropped rename — common/fault.h sites inside storage/file_io.cc) must
// leave a reopening process serving the old or the new epoch intact, never
// a torn one; and an exhaustive single-bit-flip scan over a small on-disk
// package must show zero undetected corruptions: every flipped bit is
// rejected, in digest-covered bytes (at open or at lazy payload access via
// deep_verify) and in the zero-checked alignment padding alike.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/client.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "storage/package_store.h"
#include "storage/serializer.h"
#include "test_dir.h"
#include "workload/synthetic.h"

namespace imageproof::storage {
namespace {

core::OwnerOutput BuildDeploymentOf(size_t num_images, size_t num_clusters,
                                    size_t dims, uint64_t seed) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = num_clusters;
  cp.min_distinct = 2;
  cp.max_distinct = 5;
  cp.seed = seed;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = num_clusters;
  cbp.dims = dims;
  cbp.seed = seed + 1;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs), seed + 2);
}

// --- power failure at every protocol step -------------------------------

class StoreCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Global().DisarmAll();
    owner_ = BuildDeploymentOf(60, 48, 8, 13);
    dir_ = tmp_.Dir("store_crash");
    ASSERT_TRUE(PackageStore::WriteEpoch(dir_, 1, *owner_.package).ok());
    ASSERT_TRUE(PackageStore::SetCurrentEpoch(dir_, 1).ok());
  }
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  // Asserts a cold reopen of the directory serves exactly `epoch`, fully
  // verified (deep_verify walks every chain and payload — "intact, not
  // torn" is checked against the owner's signature, not just parseability).
  void ExpectServes(uint64_t epoch) {
    OpenOptions opts;
    opts.params = &owner_.public_params;
    opts.deep_verify = true;
    uint64_t got = 0;
    auto pkg = PackageStore::OpenCurrent(dir_, opts, &got);
    ASSERT_TRUE(pkg.ok()) << pkg.status().message();
    EXPECT_EQ(got, epoch);
    EXPECT_EQ((*pkg)->RootDigest(), owner_.package->RootDigest());
  }

  test_util::TestDir tmp_;
  core::OwnerOutput owner_;
  std::string dir_;
};

TEST_F(StoreCrashTest, TornEpochWriteLeavesOldEpochServing) {
  auto& fi = fault::FaultInjector::Global();
  fi.ArmAlways("storage.file.short_write");
  auto written = PackageStore::WriteEpoch(dir_, 2, *owner_.package);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.status().code(), StatusCode::kCorrupted);
  fi.DisarmAll();
  // The torn temp file is on disk, exactly as after a crash; it must not
  // affect what a reopening process serves.
  ExpectServes(1);
}

TEST_F(StoreCrashTest, FailedFsyncLeavesOldEpochServing) {
  auto& fi = fault::FaultInjector::Global();
  fi.ArmAlways("storage.file.fsync_fail");
  auto written = PackageStore::WriteEpoch(dir_, 2, *owner_.package);
  ASSERT_FALSE(written.ok());
  fi.DisarmAll();
  ExpectServes(1);
}

TEST_F(StoreCrashTest, DroppedRenameLeavesOldEpochServing) {
  auto& fi = fault::FaultInjector::Global();
  fi.ArmAlways("storage.file.rename_fail");
  auto written = PackageStore::WriteEpoch(dir_, 2, *owner_.package);
  ASSERT_FALSE(written.ok());
  fi.DisarmAll();
  ExpectServes(1);
}

TEST_F(StoreCrashTest, CrashBetweenWriteAndFlipLeavesOldEpochServing) {
  // The epoch file lands completely, then the process dies before the
  // CURRENT flip: the new epoch exists on disk but is not published.
  ASSERT_TRUE(PackageStore::WriteEpoch(dir_, 2, *owner_.package).ok());
  ExpectServes(1);
  // Recovery (or a restarted writer) can complete the flip later.
  ASSERT_TRUE(PackageStore::SetCurrentEpoch(dir_, 2).ok());
  ExpectServes(2);
}

TEST_F(StoreCrashTest, TornCurrentFlipLeavesOldEpochServing) {
  ASSERT_TRUE(PackageStore::WriteEpoch(dir_, 2, *owner_.package).ok());
  auto& fi = fault::FaultInjector::Global();
  for (const char* site : {"storage.file.short_write",
                           "storage.file.fsync_fail",
                           "storage.file.rename_fail"}) {
    fi.DisarmAll();
    fi.ArmAlways(site);
    Status flip = PackageStore::SetCurrentEpoch(dir_, 2);
    ASSERT_FALSE(flip.ok()) << site;
    fi.DisarmAll();
    ExpectServes(1);
  }
  ASSERT_TRUE(PackageStore::SetCurrentEpoch(dir_, 2).ok());
  ExpectServes(2);
}

// --- engine updates under injected crashes ------------------------------

class EngineCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Global().DisarmAll();
    owner_ = BuildDeploymentOf(60, 48, 8, 29);
    dir_ = tmp_.Dir("engine_crash");
    features_ =
        workload::GenerateQueryFeatures(owner_.package->codebook, 10, 0.3, 7);
    insert_vec_ = owner_.package->corpus[0].second;
  }
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  std::unique_ptr<core::QueryEngine> MakeEngine() {
    // In-memory .ipk round-trip = the engine's own clone path; leaves
    // owner_.package available for reference comparisons.
    auto clone = DeserializeSpPackage(SerializeSpPackage(*owner_.package));
    EXPECT_TRUE(clone.ok());
    core::EngineOptions eo;
    eo.num_workers = 1;
    eo.update_max_attempts = 1;  // one attempt per armed fault
    eo.persist_dir = dir_;
    return std::make_unique<core::QueryEngine>(
        std::shared_ptr<const core::SpPackage>(std::move(*clone)),
        owner_.public_params, eo);
  }

  // The engine must still answer verifying queries from its current
  // snapshot after a failed update.
  void ExpectServingQueries(core::QueryEngine& engine) {
    auto resp = engine.Submit(features_, 3).get();
    ASSERT_TRUE(resp.ok()) << resp.status.message();
    core::Client client(resp.snapshot->params);
    EXPECT_TRUE(client.Verify(features_, 3, resp.response.vo).ok());
  }

  test_util::TestDir tmp_;
  core::OwnerOutput owner_;
  std::string dir_;
  std::vector<std::vector<float>> features_;
  bovw::BovwVector insert_vec_;
};

TEST_F(EngineCrashTest, UpdateSurvivesCrashAtEveryPersistStep) {
  auto engine = MakeEngine();
  auto& fi = fault::FaultInjector::Global();

  struct Step {
    const char* what;
    const char* site;
    std::vector<uint64_t> hits;  // which Fire() at the site to trip
  };
  // Hit 0 of each site is the epoch-file write; rename hit 1 is the CURRENT
  // flip (the epoch file's own rename having succeeded).
  const Step steps[] = {
      {"torn epoch write", "storage.file.short_write", {0}},
      {"epoch fsync failure", "storage.file.fsync_fail", {0}},
      {"epoch rename dropped", "storage.file.rename_fail", {0}},
      {"CURRENT flip dropped", "storage.file.rename_fail", {1}},
  };
  for (const Step& step : steps) {
    fi.DisarmAll();
    fi.ArmHits(step.site, step.hits);
    auto r = engine->InsertImage(owner_.private_key, 700000, insert_vec_,
                                 workload::GenerateImageBlob(700000));
    ASSERT_FALSE(r.ok()) << step.what << " did not fail the update";
    EXPECT_EQ(r.status().code(), StatusCode::kCorrupted) << step.what;
    fi.DisarmAll();

    // Old snapshot still serving, in memory and for a reopening process:
    // no epoch got published.
    EXPECT_EQ(engine->CurrentSnapshot()->version, 0u) << step.what;
    EXPECT_FALSE(engine->CurrentSnapshot()->package->disk_backed())
        << step.what;
    EXPECT_FALSE(PackageStore::CurrentEpoch(dir_).ok())
        << step.what << ": CURRENT appeared despite the crash";
    ExpectServingQueries(*engine);
  }

  // With faults cleared the same update goes through end to end.
  auto ok = engine->InsertImage(owner_.private_key, 700000, insert_vec_,
                                workload::GenerateImageBlob(700000));
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  auto snap = engine->CurrentSnapshot();
  EXPECT_EQ(snap->version, 1u);
  EXPECT_TRUE(snap->package->disk_backed());
  auto cur = PackageStore::CurrentEpoch(dir_);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(*cur, 1u);
  ExpectServingQueries(*engine);

  // And the published epoch reopens verified from a cold start.
  OpenOptions opts;
  opts.params = &snap->params;
  opts.deep_verify = true;
  uint64_t epoch = 0;
  auto reopened = PackageStore::OpenCurrent(dir_, opts, &epoch);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ((*reopened)->RootDigest(), snap->package->RootDigest());
}

// --- exhaustive single-bit-flip scan ------------------------------------

// Every bit of a small on-disk package is flipped once. For each flip, the
// file is opened with full verification (signature + deep_verify), which
// must reject it (detected). A flip that passes would have to lie in
// alignment padding — bytes covered by no digest — and leave the opened
// package bit-identical to the original (harmless); since the decoder
// checks padding for zeros, the scan expects none. Anything else is an
// undetected corruption and fails the test.
TEST(BitFlipScanTest, EveryFlippedBitDetected) {
  core::OwnerOutput owner = BuildDeploymentOf(10, 12, 4, 41);
  test_util::TestDir tmp;
  std::string path = tmp.File("bitflip_scan.ipk");
  WriteOptions wo;
  wo.page_size = 64;  // shrink padding so the scan is dominated by real data
  ASSERT_TRUE(PackageStore::Write(path, *owner.package, wo).ok());

  auto layout = PackageStore::Inspect(path);
  ASSERT_TRUE(layout.ok());
  const uint64_t file_size = layout->file_size;
  ASSERT_LE(file_size, 256u * 1024) << "scan corpus grew too large";

  // Digest-covered byte ranges: header (its own digest chain), TOC, every
  // section (kImageBlobs via per-payload digests walked by deep_verify).
  auto covered = [&](uint64_t off) {
    if (off < layout->header_bytes) return true;
    if (off >= layout->toc_offset && off < layout->toc_offset + layout->toc_size)
      return true;
    for (const auto& s : layout->sections) {
      if (off >= s.offset && off < s.offset + s.size) return true;
    }
    return false;
  };

  OpenOptions opts;
  opts.params = &owner.public_params;
  opts.deep_verify = true;
  const crypto::Digest root = owner.package->RootDigest();

  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint64_t detected = 0, harmless = 0;
  for (uint64_t off = 0; off < file_size; ++off) {
    ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
    int orig = std::fgetc(f);
    ASSERT_NE(orig, EOF);
    for (int bit = 0; bit < 8; ++bit) {
      const uint8_t mutant = static_cast<uint8_t>(orig ^ (1 << bit));
      ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
      ASSERT_NE(std::fputc(mutant, f), EOF);
      ASSERT_EQ(std::fflush(f), 0);

      auto opened = PackageStore::Open(path, opts);
      if (!opened.ok()) {
        EXPECT_EQ(opened.status().code(), StatusCode::kCorrupted)
            << "byte " << off << " bit " << bit;
        ++detected;
      } else {
        // The flip survived full verification: it must be padding, and the
        // served state must be exactly the original.
        ASSERT_FALSE(covered(off))
            << "undetected corruption at covered byte " << off << " bit "
            << bit;
        EXPECT_EQ((*opened)->RootDigest(), root);
        EXPECT_TRUE((*opened)->ImagesEqual(*owner.package));
        ++harmless;
      }
    }
    ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
    ASSERT_NE(std::fputc(orig, f), EOF);
    ASSERT_EQ(std::fflush(f), 0);
  }
  std::fclose(f);

  // Page-64 alignment leaves padding, and flips there are detected too.
  // After restoration the original file still opens clean.
  EXPECT_GT(detected, 0u);
  EXPECT_EQ(harmless, 0u);
  auto final_open = PackageStore::Open(path, opts);
  EXPECT_TRUE(final_open.ok()) << final_open.status().message();
}

}  // namespace
}  // namespace imageproof::storage
