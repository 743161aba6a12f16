// Tests for the mmap package store (storage/package_store.h): round-trip
// fidelity, the loopback byte-identity contract (disk-backed queries are
// byte-identical to in-memory at any thread count), the open-time rejection
// matrix for every tampered header/TOC/section byte class, lazy image
// integrity, the epoch directory protocol, and the engine's disk-backed
// update path.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "core/update.h"
#include "storage/file_io.h"
#include "storage/package_store.h"
#include "storage/serializer.h"
#include "test_dir.h"
#include "workload/synthetic.h"

namespace imageproof::storage {
namespace {

core::OwnerOutput BuildSmallDeployment(core::Config config, uint64_t seed = 3,
                                       size_t num_images = 200) {
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
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

// Overwrites one byte of the file at `offset` with its XOR against `mask`.
void FlipByte(const std::string& path, uint64_t offset, uint8_t mask = 0xFF) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ mask, f);
  std::fclose(f);
}

class PackageStoreSchemeTest : public ::testing::TestWithParam<const char*> {
 protected:
  core::Config SchemeConfig() const {
    return std::string(GetParam()) == "ImageProof"
               ? core::Config::ImageProof()
               : core::Config::OptimizedBoth();
  }
};

TEST_P(PackageStoreSchemeTest, RoundTripPreservesSignedDigests) {
  test_util::TestDir tmp;
  core::OwnerOutput owner = BuildSmallDeployment(SchemeConfig());
  std::string path = tmp.File("store_roundtrip.ipk");
  ASSERT_TRUE(PackageStore::Write(path, *owner.package).ok());

  OpenOptions opts;
  opts.params = &owner.public_params;
  auto loaded = PackageStore::Open(path, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE((*loaded)->disk_backed());
  EXPECT_EQ((*loaded)->RootDigest(), owner.package->RootDigest());
  EXPECT_EQ((*loaded)->NumImages(), owner.package->NumImages());
  EXPECT_TRUE((*loaded)->ImagesEqual(*owner.package));

  // Queries served from the mapped package verify against the ORIGINAL
  // owner's signature.
  core::ServiceProvider sp(loaded->get());
  core::Client client(owner.public_params);
  auto features =
      workload::GenerateQueryFeatures((*loaded)->codebook, 20, 0.3, 42);
  core::QueryResponse resp = sp.Query(features, 5);
  auto verified = client.Verify(features, 5, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  std::remove(path.c_str());
}

// The loopback contract from the determinism invariant, extended to disk:
// for the same snapshot state, a disk-backed engine's VO bytes are
// byte-identical to the in-memory engine's at every thread count.
TEST_P(PackageStoreSchemeTest, DiskBackedQueriesByteIdenticalToMemory) {
  test_util::TestDir tmp;
  core::OwnerOutput owner = BuildSmallDeployment(SchemeConfig());
  std::string path = tmp.File("store_loopback.ipk");
  ASSERT_TRUE(PackageStore::Write(path, *owner.package).ok());
  OpenOptions opts;
  opts.params = &owner.public_params;
  auto disk_pkg = PackageStore::Open(path, opts);
  ASSERT_TRUE(disk_pkg.ok()) << disk_pkg.status().message();

  std::vector<std::vector<std::vector<float>>> queries;
  for (uint64_t s = 0; s < 4; ++s) {
    queries.push_back(workload::GenerateQueryFeatures(
        owner.package->codebook, 15, 0.3, 100 + s));
  }

  // Reference: serial in-memory ServiceProvider.
  std::vector<Bytes> reference;
  core::ServiceProvider sp(owner.package.get());
  for (const auto& q : queries) reference.push_back(sp.Query(q, 5).vo.Serialize());

  for (unsigned threads : {1u, 4u}) {
    core::EngineOptions eo;
    eo.num_workers = threads;
    eo.intra_query_threads = threads;
    core::QueryEngine engine(
        std::shared_ptr<const core::SpPackage>(std::move(*disk_pkg)),
        owner.public_params, eo);
    auto responses = engine.QueryBatch(queries, 5);
    ASSERT_EQ(responses.size(), queries.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].status.message();
      EXPECT_EQ(responses[i].response.vo.Serialize(), reference[i])
          << "disk-backed VO diverged, query " << i << ", " << threads
          << " threads";
    }
    // Re-open for the next engine (the previous one consumed the package).
    disk_pkg = PackageStore::Open(path, opts);
    ASSERT_TRUE(disk_pkg.ok());
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Schemes, PackageStoreSchemeTest,
                         ::testing::Values("ImageProof", "OptimizedBoth"));

class PackageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    owner_ = BuildSmallDeployment(core::Config::ImageProof(), 3, 120);
    path_ = tmp_.File("store_fixture.ipk");
    ASSERT_TRUE(PackageStore::Write(path_, *owner_.package).ok());
  }

  OpenOptions SignedOpen() {
    OpenOptions o;
    o.params = &owner_.public_params;
    return o;
  }

  test_util::TestDir tmp_;
  core::OwnerOutput owner_;
  std::string path_;
};

TEST_F(PackageStoreTest, InspectReportsAlignedSections) {
  auto layout = PackageStore::Inspect(path_);
  ASSERT_TRUE(layout.ok()) << layout.status().message();
  EXPECT_EQ(layout->page_size, 4096u);
  ASSERT_EQ(layout->sections.size(), 9u);
  uint64_t prev_end = layout->toc_offset + layout->toc_size;
  for (size_t i = 0; i < layout->sections.size(); ++i) {
    const auto& s = layout->sections[i];
    EXPECT_EQ(s.id, i + 1) << "sections must appear in id order";
    EXPECT_EQ(s.offset % layout->page_size, 0u);
    EXPECT_GE(s.offset, prev_end);
    prev_end = s.offset + s.size;
  }
  EXPECT_EQ(prev_end, layout->file_size) << "no trailing bytes after sections";
}

TEST_F(PackageStoreTest, SmallPageSizeRoundTrips) {
  std::string path = tmp_.File("store_page64.ipk");
  WriteOptions wo;
  wo.page_size = 64;
  ASSERT_TRUE(PackageStore::Write(path, *owner_.package, wo).ok());
  auto loaded = PackageStore::Open(path, SignedOpen());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->RootDigest(), owner_.package->RootDigest());
  std::remove(path.c_str());
}

TEST_F(PackageStoreTest, InvalidPageSizeRejectedAtWrite) {
  WriteOptions wo;
  wo.page_size = 48;  // not a power of two
  EXPECT_FALSE(
      PackageStore::Write(tmp_.File("x.ipk"), *owner_.package, wo).ok());
  wo.page_size = 32;  // below the floor
  EXPECT_FALSE(
      PackageStore::Write(tmp_.File("x.ipk"), *owner_.package, wo).ok());
}

TEST_F(PackageStoreTest, DeepVerifyPassesOnIntactFile) {
  OpenOptions opts = SignedOpen();
  opts.deep_verify = true;
  auto loaded = PackageStore::Open(path_, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
}

// Rejection matrix: every tampered metadata byte class fails kCorrupted at
// open. Offsets follow the documented layout: magic at 0, version at 4,
// flags at 8, page_size at 12, section_count at 16, root digest at 44,
// toc digest at 76, header digest at 108, TOC from 140.
TEST_F(PackageStoreTest, TamperedHeaderAndTocRejected) {
  struct Case {
    const char* what;
    uint64_t offset;
  };
  const Case cases[] = {
      {"magic", 0},          {"version", 4},        {"flags", 8},
      {"page_size", 12},     {"section_count", 16}, {"root_digest", 44},
      {"toc_digest", 76},    {"header_digest", 108}, {"toc_entry_id", 140},
      {"toc_entry_offset", 144}, {"toc_entry_digest", 160},
  };
  for (const auto& c : cases) {
    std::string path = tmp_.File("store_tamper.ipk");
    ASSERT_TRUE(PackageStore::Write(path, *owner_.package).ok());
    FlipByte(path, c.offset);
    auto loaded = PackageStore::Open(path, SignedOpen());
    ASSERT_FALSE(loaded.ok()) << "tampered " << c.what << " accepted";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupted) << c.what;
    std::remove(path.c_str());
  }
}

TEST_F(PackageStoreTest, TamperedSectionBytesRejected) {
  auto layout = PackageStore::Inspect(path_);
  ASSERT_TRUE(layout.ok());
  // Every section except image blobs is digest-checked at open.
  for (const auto& s : layout->sections) {
    if (s.id == 9 || s.size == 0) continue;  // kImageBlobs: checked lazily
    std::string path = tmp_.File("store_tamper_sec.ipk");
    ASSERT_TRUE(PackageStore::Write(path, *owner_.package).ok());
    FlipByte(path, s.offset + s.size / 2);
    auto loaded = PackageStore::Open(path, SignedOpen());
    ASSERT_FALSE(loaded.ok()) << "tampered section " << s.id << " accepted";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupted);
    std::remove(path.c_str());
  }
}

TEST_F(PackageStoreTest, TruncatedAndPaddedFilesRejected) {
  Bytes original;
  {
    FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      original.insert(original.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  auto write_and_open = [&](const Bytes& data) {
    std::string path = tmp_.File("store_resize.ipk");
    FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not see.
    if (!data.empty()) std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    auto loaded = PackageStore::Open(path, SignedOpen());
    std::remove(path.c_str());
    return loaded.ok() ? Status::Ok() : loaded.status();
  };

  Bytes truncated(original.begin(), original.begin() + original.size() / 2);
  Status s = write_and_open(truncated);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupted);

  Bytes tiny(original.begin(), original.begin() + 64);  // inside the header
  s = write_and_open(tiny);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupted);

  Bytes padded = original;
  padded.push_back(0);
  s = write_and_open(padded);
  ASSERT_FALSE(s.ok()) << "trailing byte accepted";
  EXPECT_EQ(s.code(), StatusCode::kCorrupted);

  EXPECT_FALSE(write_and_open({}).ok());
}

// A flipped image payload byte passes Open (lazy integrity) but surfaces as
// kCorrupted from the access that touches it — never as silently wrong
// bytes.
TEST_F(PackageStoreTest, TamperedImagePayloadCaughtLazily) {
  auto layout = PackageStore::Inspect(path_);
  ASSERT_TRUE(layout.ok());
  const auto& blobs = layout->sections.back();
  ASSERT_EQ(blobs.id, 9u);
  ASSERT_GT(blobs.size, 0u);

  std::string path = tmp_.File("store_lazy.ipk");
  ASSERT_TRUE(PackageStore::Write(path, *owner_.package).ok());
  FlipByte(path, blobs.offset + blobs.size / 2);

  auto loaded = PackageStore::Open(path, SignedOpen());
  ASSERT_TRUE(loaded.ok()) << "lazy open must not hash payloads: "
                           << loaded.status().message();

  // Walking every payload must hit the corruption.
  Status walk = (*loaded)->ForEachImage(
      [](bovw::ImageId, BytesView, BytesView) { return Status::Ok(); });
  ASSERT_FALSE(walk.ok());
  EXPECT_EQ(walk.code(), StatusCode::kCorrupted);

  // deep_verify refuses the same file at open.
  OpenOptions deep = SignedOpen();
  deep.deep_verify = true;
  auto audited = PackageStore::Open(path, deep);
  ASSERT_FALSE(audited.ok());
  EXPECT_EQ(audited.status().code(), StatusCode::kCorrupted);
  std::remove(path.c_str());
}

// Authenticity is separate from integrity: a self-consistent file written
// by someone else fails the signature check.
TEST_F(PackageStoreTest, ForeignPackageFailsSignatureCheck) {
  core::OwnerOutput other =
      BuildSmallDeployment(core::Config::ImageProof(), 77, 120);
  std::string path = tmp_.File("store_foreign.ipk");
  ASSERT_TRUE(PackageStore::Write(path, *other.package).ok());

  // Unsigned open succeeds (the file is internally consistent)...
  auto unsigned_open = PackageStore::Open(path, {});
  EXPECT_TRUE(unsigned_open.ok()) << unsigned_open.status().message();

  // ...but opening against OUR params rejects it.
  auto loaded = PackageStore::Open(path, SignedOpen());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupted);
  std::remove(path.c_str());
}

TEST_F(PackageStoreTest, DiskBackedPackageRejectsInPlaceUpdate) {
  auto loaded = PackageStore::Open(path_, SignedOpen());
  ASSERT_TRUE(loaded.ok());
  core::SpPackage* pkg = const_cast<core::SpPackage*>(loaded->get());
  core::PublicParams params = owner_.public_params;
  crypto::RsaPrivateKey key = owner_.private_key;
  auto stats = core::InsertImage(pkg, key, &params, 999999,
                                 owner_.package->corpus[0].second,
                                 workload::GenerateImageBlob(999999));
  EXPECT_FALSE(stats.ok()) << "in-place update of a mapped package";
}

TEST_F(PackageStoreTest, WriteFromDiskBackedPackageRoundTrips) {
  // Re-serializing a mapped package streams payloads through the uniform
  // accessor; the copy must be byte-equivalent to one written from memory.
  auto loaded = PackageStore::Open(path_, SignedOpen());
  ASSERT_TRUE(loaded.ok());
  std::string copy = tmp_.File("store_copy.ipk");
  ASSERT_TRUE(PackageStore::Write(copy, **loaded).ok());
  auto reloaded = PackageStore::Open(copy, SignedOpen());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  EXPECT_EQ((*reloaded)->RootDigest(), owner_.package->RootDigest());
  EXPECT_TRUE((*reloaded)->ImagesEqual(*owner_.package));
  std::remove(copy.c_str());
}

// One package format: the in-memory image is byte-for-byte the file Write
// produced, whether it is encoded from the owner's in-memory package or
// from the disk-backed package opened over that file.
TEST_F(PackageStoreTest, SerializerBytesEqualWrittenFile) {
  Bytes file;
  ASSERT_TRUE(ReadFileBytes(path_, &file).ok());
  EXPECT_EQ(SerializeSpPackage(*owner_.package), file)
      << "in-memory image diverged from the written file";
  auto from_store = PackageStore::Open(path_, SignedOpen());
  ASSERT_TRUE(from_store.ok()) << from_store.status().message();
  EXPECT_EQ(SerializeSpPackage(**from_store), file)
      << "image of the mapped package diverged from its file";
  auto decoded = DeserializeSpPackage(file);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_FALSE((*decoded)->disk_backed());
  EXPECT_EQ((*decoded)->RootDigest(), owner_.package->RootDigest());
  EXPECT_TRUE((*decoded)->ImagesEqual(*owner_.package));
}

// --- epoch directory protocol -------------------------------------------

TEST(EpochProtocolTest, CurrentPointerLifecycle) {
  test_util::TestDir tmp;
  core::OwnerOutput owner =
      BuildSmallDeployment(core::Config::ImageProof(), 11, 60);
  std::string dir = tmp.Dir("epoch_dir_lifecycle");

  // Fresh directory: no CURRENT.
  EXPECT_FALSE(PackageStore::CurrentEpoch(dir).ok());
  EXPECT_FALSE(PackageStore::OpenCurrent(dir).ok());

  auto p1 = PackageStore::WriteEpoch(dir, 1, *owner.package);
  ASSERT_TRUE(p1.ok()) << p1.status().message();
  // Written but not published: still no CURRENT.
  EXPECT_FALSE(PackageStore::CurrentEpoch(dir).ok());

  ASSERT_TRUE(PackageStore::SetCurrentEpoch(dir, 1).ok());
  auto cur = PackageStore::CurrentEpoch(dir);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(*cur, 1u);

  OpenOptions opts;
  opts.params = &owner.public_params;
  uint64_t epoch = 0;
  auto pkg = PackageStore::OpenCurrent(dir, opts, &epoch);
  ASSERT_TRUE(pkg.ok()) << pkg.status().message();
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ((*pkg)->RootDigest(), owner.package->RootDigest());

  // Publish epoch 2; OpenCurrent follows the pointer.
  auto p2 = PackageStore::WriteEpoch(dir, 2, *owner.package);
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(PackageStore::SetCurrentEpoch(dir, 2).ok());
  pkg = PackageStore::OpenCurrent(dir, opts, &epoch);
  ASSERT_TRUE(pkg.ok());
  EXPECT_EQ(epoch, 2u);
}

TEST(EpochProtocolTest, CorruptCurrentPointerRejected) {
  test_util::TestDir tmp;
  std::string dir = tmp.Dir("epoch_dir_badcur");
  FILE* f = std::fopen((dir + "/CURRENT").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("IPKC not-a-number\n", f);
  std::fclose(f);
  auto cur = PackageStore::CurrentEpoch(dir);
  ASSERT_FALSE(cur.ok());
  EXPECT_EQ(cur.status().code(), StatusCode::kCorrupted);
}

// --- engine persistence -------------------------------------------------

TEST(EnginePersistTest, UpdatesPublishVerifiedEpochs) {
  test_util::TestDir tmp;
  core::OwnerOutput owner =
      BuildSmallDeployment(core::Config::ImageProof(), 21, 80);
  std::string dir = tmp.Dir("engine_persist");

  auto features = workload::GenerateQueryFeatures(
      owner.package->codebook, 15, 0.3, 5);
  bovw::BovwVector insert_vec = owner.package->corpus[0].second;

  core::EngineOptions eo;
  eo.num_workers = 1;
  eo.persist_dir = dir;
  core::QueryEngine engine(
      std::shared_ptr<const core::SpPackage>(std::move(owner.package)),
      owner.public_params, eo);

  auto ins = engine.InsertImage(owner.private_key, 500000, insert_vec,
                                workload::GenerateImageBlob(500000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();

  // The engine now serves the mapped epoch it just published.
  auto snap = engine.CurrentSnapshot();
  EXPECT_TRUE(snap->package->disk_backed());
  EXPECT_EQ(snap->version, 1u);
  auto cur = PackageStore::CurrentEpoch(dir);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(*cur, 1u);

  // Queries served from the mapped snapshot verify against its params.
  auto fut = engine.Submit(features, 5);
  auto resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  core::Client client(resp.snapshot->params);
  EXPECT_TRUE(client.Verify(features, 5, resp.response.vo).ok());

  // A second update advances the epoch.
  auto del = engine.DeleteImage(owner.private_key, 500000);
  ASSERT_TRUE(del.ok()) << del.status().message();
  cur = PackageStore::CurrentEpoch(dir);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(*cur, 2u);
  EXPECT_EQ(engine.CurrentSnapshot()->version, 2u);

  // A restarted process resumes from CURRENT: same root as the live
  // snapshot, and initial_version keeps epoch numbering monotonic.
  OpenOptions opts;
  opts.params = &engine.CurrentSnapshot()->params;
  uint64_t epoch = 0;
  auto reopened = PackageStore::OpenCurrent(dir, opts, &epoch);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ((*reopened)->RootDigest(),
            engine.CurrentSnapshot()->package->RootDigest());
}

}  // namespace
}  // namespace imageproof::storage
