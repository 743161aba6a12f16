#include "storage/package_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "crypto/hasher.h"
#include "crypto/rsa.h"
#include "crypto/sha3.h"
#include "storage/file_io.h"
#include "storage/format.h"
#include "storage/serializer.h"

namespace imageproof::storage {

namespace {

using bovw::ImageId;
using crypto::Digest;

constexpr uint32_t kStoreMagic = 0x314B5049;  // "IPK1" as on-disk LE bytes
constexpr uint32_t kStoreVersion = 1;
// Header flag: the package uses the split-root layout (core::SpPackage::
// list_tree). No other flag bit is defined.
constexpr uint32_t kFlagSplitRoot = 1;

// Section ids, in file order. All nine are always present (possibly empty),
// which lets the open path validate the TOC as one fixed shape instead of a
// combinatorial one.
enum SectionId : uint32_t {
  kConfig = 1,
  kCodebook = 2,
  kCorpus = 3,
  kWeights = 4,
  kFilterGeo = 5,
  kTrees = 6,
  kPostings = 7,
  kImageIndex = 8,
  kImageBlobs = 9,
};
constexpr size_t kNumSections = 9;

constexpr size_t kTocEntryBytes = 4 + 8 + 8 + crypto::kDigestSize;
// magic | version | flags | page_size | section_count (u32 each),
// toc_offset | toc_size | file_size (u64 each), root_digest.
constexpr size_t kHeaderPrefixBytes = 5 * 4 + 3 * 8 + crypto::kDigestSize;
// ... plus toc_digest, plus header_digest over everything before it.
constexpr size_t kHeaderBytes = kHeaderPrefixBytes + 2 * crypto::kDigestSize;

constexpr uint32_t kMinPageSize = 64;
constexpr uint32_t kMaxPageSize = 1u << 20;

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

Status Corrupt(const std::string& what) {
  return Status::Corrupted("store: " + what);
}

// ---------------------------------------------------------------------------
// The image records of a decoded package: payload extents into the blob
// section of a byte image, each with the digest it is checked against on
// every read. For a mapped package this is its ImagePayloadSource, owning
// the mmap; the package's `backing` shared_ptr pins this object (and
// therefore the mapping) for as long as any snapshot references the
// package. The in-memory decode walks it once to copy the payloads out.
// ---------------------------------------------------------------------------

class StoredImages final : public core::ImagePayloadSource {
 public:
  struct Record {
    ImageId id = 0;
    uint64_t offset = 0;  // into the blob section
    uint64_t size = 0;
    Digest digest;  // h(payload): the lazy integrity check
    Bytes signature;
  };

  size_t Count() const override { return records_.size(); }

  Status Get(ImageId id, bool* found, Bytes* data,
             Bytes* signature) const override {
    *found = false;
    data->clear();
    signature->clear();
    auto it = std::lower_bound(
        records_.begin(), records_.end(), id,
        [](const Record& r, ImageId key) { return r.id < key; });
    if (it == records_.end() || it->id != id) return Status::Ok();
    const size_t i = static_cast<size_t>(it - records_.begin());
    if (Status s = CheckPayloads(i, i + 1); !s.ok()) return s;
    *found = true;
    data->assign(BlobPtr(*it), BlobPtr(*it) + it->size);
    *signature = it->signature;
    return Status::Ok();
  }

  Status ForEach(const std::function<Status(ImageId, BytesView, BytesView)>&
                     fn) const override {
    // Checked a chunk at a time, so a walk over a large mapping hashes each
    // payload while its pages are still warm from the check.
    constexpr size_t kChunk = 64;
    for (size_t begin = 0; begin < records_.size(); begin += kChunk) {
      const size_t end = std::min(records_.size(), begin + kChunk);
      if (Status s = CheckPayloads(begin, end); !s.ok()) return s;
      for (size_t i = begin; i < end; ++i) {
        const Record& r = records_[i];
        if (Status s = fn(r.id, BytesView(BlobPtr(r), r.size),
                          BytesView(r.signature));
            !s.ok()) {
          return s;
        }
      }
    }
    return Status::Ok();
  }

  // The blob section is the one region open-time digests skip (hashing it
  // would fault every page). Each read pays one hash over the payloads it
  // touches instead — four at a time on the lane-interleaved Keccak — so a
  // flipped bit in a stored image turns the read that would have served it
  // into kCorrupted.
  Status CheckPayloads(size_t begin, size_t end) const {
    std::vector<BytesView> payloads;
    payloads.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      payloads.emplace_back(BlobPtr(records_[i]), records_[i].size);
    }
    std::vector<Digest> got(payloads.size());
    crypto::HashBatch(payloads.data(), got.data(), payloads.size());
    for (size_t i = begin; i < end; ++i) {
      if (got[i - begin] != records_[i].digest) {
        return Corrupt("image payload digest diverges (id " +
                       std::to_string(records_[i].id) + ")");
      }
    }
    return Status::Ok();
  }

  const uint8_t* BlobPtr(const Record& r) const { return blobs_ + r.offset; }

  std::vector<Record> records_;
  const uint8_t* blobs_ = nullptr;  // start of the blob section
  MmapFile map_;                    // set for a mapped package only
};

// ---------------------------------------------------------------------------
// Header + TOC
// ---------------------------------------------------------------------------

struct Header {
  uint32_t page_size = 0;
  uint64_t toc_offset = 0;
  uint64_t toc_size = 0;
  uint64_t file_size = 0;
  bool split_root = false;
  Digest root_digest;
};

struct TocEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  Digest digest;
};

// Parses and digest-checks header + TOC against the byte image. Every
// failure is kCorrupted: the bytes existed, so malformed metadata is torn or
// tampered state, not an operational error.
Status ReadHeaderAndToc(BytesView file, Header* header,
                        std::vector<TocEntry>* toc) {
  if (file.size < kHeaderBytes) return Corrupt("file shorter than header");
  ByteReader r(file.data, kHeaderBytes);
  uint32_t magic = 0, version = 0, flags = 0, section_count = 0;
  Status s;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kStoreMagic) return Corrupt("bad magic");
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != kStoreVersion) return Corrupt("unknown version");
  if (!(s = r.GetU32(&flags)).ok()) return s;
  if ((flags & ~kFlagSplitRoot) != 0) return Corrupt("unknown flags");
  header->split_root = (flags & kFlagSplitRoot) != 0;
  if (!(s = r.GetU32(&header->page_size)).ok()) return s;
  if (header->page_size < kMinPageSize || header->page_size > kMaxPageSize ||
      (header->page_size & (header->page_size - 1)) != 0) {
    return Corrupt("bad page size");
  }
  if (!(s = r.GetU32(&section_count)).ok()) return s;
  if (section_count != kNumSections) return Corrupt("bad section count");
  if (!(s = r.GetU64(&header->toc_offset)).ok()) return s;
  if (!(s = r.GetU64(&header->toc_size)).ok()) return s;
  if (!(s = r.GetU64(&header->file_size)).ok()) return s;
  if (!(s = crypto::GetDigest(r, &header->root_digest)).ok()) return s;
  Digest toc_digest, header_digest;
  if (!(s = crypto::GetDigest(r, &toc_digest)).ok()) return s;
  if (!(s = crypto::GetDigest(r, &header_digest)).ok()) return s;
  // The header digest covers everything before it (including toc_digest),
  // so a flipped bit anywhere in the metadata chain is caught before any
  // field is trusted further.
  if (crypto::Sha3(file.data, kHeaderPrefixBytes + crypto::kDigestSize) !=
      header_digest) {
    return Corrupt("header digest diverges");
  }
  if (header->file_size != file.size) return Corrupt("file size diverges");
  if (header->toc_offset != kHeaderBytes ||
      header->toc_size != kNumSections * kTocEntryBytes ||
      header->toc_offset + header->toc_size > file.size) {
    return Corrupt("bad TOC extent");
  }
  if (crypto::Sha3(file.data + header->toc_offset, header->toc_size) !=
      toc_digest) {
    return Corrupt("TOC digest diverges");
  }

  ByteReader tr(file.data + header->toc_offset, header->toc_size);
  uint64_t prev_end = header->toc_offset + header->toc_size;
  toc->clear();
  for (size_t i = 0; i < kNumSections; ++i) {
    TocEntry e;
    if (!(s = tr.GetU32(&e.id)).ok()) return s;
    if (!(s = tr.GetU64(&e.offset)).ok()) return s;
    if (!(s = tr.GetU64(&e.size)).ok()) return s;
    if (!(s = crypto::GetDigest(tr, &e.digest)).ok()) return s;
    // Fixed shape: ids 1..9 in order, page-aligned, non-overlapping, inside
    // the file.
    if (e.id != i + 1) return Corrupt("TOC ids out of order");
    if (e.offset % header->page_size != 0) {
      return Corrupt("section not page-aligned");
    }
    if (e.offset < prev_end || e.size > file.size ||
        e.offset > file.size - e.size) {
      return Corrupt("section extent out of bounds");
    }
    // The alignment gap before this section is covered by no digest; the
    // writer zero-fills it, so any other byte there is a flipped bit or
    // smuggled data.
    if (std::any_of(file.data + prev_end, file.data + e.offset,
                    [](uint8_t b) { return b != 0; })) {
      return Corrupt("non-zero alignment padding");
    }
    prev_end = e.offset + e.size;
    toc->push_back(e);
  }
  // Nothing may trail the last section: appended bytes would be state no
  // digest covers.
  if (prev_end != file.size) return Corrupt("trailing bytes after sections");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Section codecs (beyond what storage/format.h provides)
// ---------------------------------------------------------------------------

Bytes EncodePostings(const core::SpPackage& package) {
  ByteWriter w;
  const bool filters = package.config.with_filters;
  if (package.config.freq_grouped) {
    const auto& idx = *package.fg_index;
    w.PutVarint(idx.num_clusters());
    for (size_t c = 0; c < idx.num_clusters(); ++c) {
      const auto& list = idx.list(static_cast<bovw::ClusterId>(c));
      w.PutVarint(list.postings.size());
      for (const auto& g : list.postings) {
        w.PutU32(g.freq);
        w.PutVarint(g.members.size());
        for (const auto& m : g.members) {
          w.PutU64(m.id);
          w.PutF64(m.norm);
        }
        crypto::PutDigest(w, g.digest);
      }
      if (filters) w.PutBlob(list.filter->Serialize());
    }
  } else {
    const auto& idx = *package.inv_index;
    w.PutVarint(idx.num_clusters());
    for (size_t c = 0; c < idx.num_clusters(); ++c) {
      const auto& list = idx.list(static_cast<bovw::ClusterId>(c));
      w.PutVarint(list.postings.size());
      for (const auto& p : list.postings) {
        w.PutU64(p.id);
        w.PutF64(p.impact);
        crypto::PutDigest(w, p.digest);
      }
      if (filters) w.PutBlob(list.filter->Serialize());
    }
  }
  return w.Take();
}

Status DecodeFilter(ByteReader& r, const cuckoo::CuckooParams& geo,
                    std::optional<cuckoo::CuckooFilter>* out) {
  Bytes blob;
  Status s = r.GetBlob(&blob);
  if (!s.ok()) return s;
  Result<cuckoo::CuckooFilter> filter = cuckoo::CuckooFilter::Deserialize(blob);
  if (!filter.ok()) return filter.status();
  if (filter->params() != geo) {
    return Corrupt("filter geometry diverges from committed geometry");
  }
  *out = std::move(*filter);
  return Status::Ok();
}

Status DecodePlainPostings(ByteReader& r, const core::SpPackage& pkg,
                           const std::vector<double>& weights,
                           const cuckoo::CuckooParams& geo,
                           std::vector<invindex::MerkleInvertedList>* lists) {
  uint64_t nl = 0;
  Status s;
  if (!(s = r.GetVarint(&nl)).ok()) return s;
  if (nl != weights.size()) return Corrupt("posting list count diverges");
  lists->resize(nl);
  for (uint64_t c = 0; c < nl; ++c) {
    invindex::MerkleInvertedList& list = (*lists)[c];
    list.cluster = static_cast<bovw::ClusterId>(c);
    list.weight = weights[c];
    uint64_t np = 0;
    if (!(s = r.GetVarint(&np)).ok()) return s;
    // id(8) + impact(8) + digest(32) per posting: cap the allocation
    // against bytes actually present.
    if (np > r.remaining() / (16 + crypto::kDigestSize)) {
      return Corrupt("posting count exceeds input size");
    }
    list.postings.resize(np);
    for (auto& p : list.postings) {
      if (!(s = r.GetU64(&p.id)).ok()) return s;
      if (!(s = r.GetF64(&p.impact)).ok()) return s;
      if (!(s = crypto::GetDigest(r, &p.digest)).ok()) return s;
    }
    if (pkg.config.with_filters) {
      if (!(s = DecodeFilter(r, geo, &list.filter)).ok()) return s;
    }
  }
  return Status::Ok();
}

Status DecodeFgPostings(ByteReader& r, const core::SpPackage& pkg,
                        const std::vector<double>& weights,
                        const cuckoo::CuckooParams& geo,
                        std::vector<freqgroup::FgList>* lists) {
  uint64_t nl = 0;
  Status s;
  if (!(s = r.GetVarint(&nl)).ok()) return s;
  if (nl != weights.size()) return Corrupt("posting list count diverges");
  lists->resize(nl);
  for (uint64_t c = 0; c < nl; ++c) {
    freqgroup::FgList& list = (*lists)[c];
    list.cluster = static_cast<bovw::ClusterId>(c);
    list.weight = weights[c];
    uint64_t ng = 0;
    if (!(s = r.GetVarint(&ng)).ok()) return s;
    // freq(4) + member count(1+) + >=1 member(16) + digest(32) per group.
    if (ng > r.remaining() / (5 + 16 + crypto::kDigestSize)) {
      return Corrupt("group count exceeds input size");
    }
    list.postings.resize(ng);
    for (auto& g : list.postings) {
      if (!(s = r.GetU32(&g.freq)).ok()) return s;
      uint64_t nm = 0;
      if (!(s = r.GetVarint(&nm)).ok()) return s;
      if (nm > r.remaining() / 16) {
        return Corrupt("member count exceeds input size");
      }
      g.members.resize(nm);
      for (auto& m : g.members) {
        if (!(s = r.GetU64(&m.id)).ok()) return s;
        if (!(s = r.GetF64(&m.norm)).ok()) return s;
      }
      if (!(s = crypto::GetDigest(r, &g.digest)).ok()) return s;
    }
    if (pkg.config.with_filters) {
      if (!(s = DecodeFilter(r, geo, &list.filter)).ok()) return s;
    }
  }
  return Status::Ok();
}

// One image-index entry on the wire: id(u64) | blob offset(varint) |
// blob size(varint) | payload digest(32) | signature blob.
Status DecodeImageIndex(ByteReader& r, uint64_t blobs_size,
                        std::vector<StoredImages::Record>* records) {
  uint64_t n = 0;
  Status s;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > r.remaining() / (8 + 1 + 1 + crypto::kDigestSize + 1)) {
    return Corrupt("image count exceeds input size");
  }
  records->resize(n);
  uint64_t blobs_end = 0;
  for (uint64_t i = 0; i < n; ++i) {
    StoredImages::Record& rec = (*records)[i];
    if (!(s = r.GetU64(&rec.id)).ok()) return s;
    if (i > 0 && rec.id <= (*records)[i - 1].id) {
      return Corrupt("image ids not ascending");
    }
    if (!(s = r.GetVarint(&rec.offset)).ok()) return s;
    if (!(s = r.GetVarint(&rec.size)).ok()) return s;
    // The payloads tile the blob section back to back, as the writer lays
    // them out: a forged extent can neither read bytes of unrelated
    // sections nor leave blob bytes that no payload digest covers.
    if (rec.offset != blobs_end || rec.size > blobs_size - blobs_end) {
      return Corrupt("image extents do not tile the blob section");
    }
    blobs_end += rec.size;
    if (!(s = crypto::GetDigest(r, &rec.digest)).ok()) return s;
    if (!(s = r.GetBlob(&rec.signature)).ok()) return s;
    if (rec.signature.size() > 4096) return Corrupt("absurd signature size");
  }
  if (blobs_end != blobs_size) {
    return Corrupt("image extents do not tile the blob section");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The codec: one encoder producing the byte image, one decoder over it.
// ---------------------------------------------------------------------------

// The .ipk byte image of `package`, sections aligned to `page` (validated
// by the caller). Payloads stream through the uniform accessor, which
// integrity-checks disk-backed ones as they are read, so a corrupted source
// can never be re-published clean.
Result<Bytes> EncodePackage(const core::SpPackage& package, uint32_t page) {
  Bytes sections[kNumSections];
  {
    ByteWriter w;
    PutConfig(w, package.config);
    sections[kConfig - 1] = w.Take();
  }
  {
    ByteWriter w;
    PutPointSet(w, package.codebook);
    sections[kCodebook - 1] = w.Take();
  }
  {
    ByteWriter w;
    w.PutVarint(package.corpus.size());
    for (const auto& [id, v] : package.corpus) {
      w.PutVarint(id);
      PutBovw(w, v);
    }
    sections[kCorpus - 1] = w.Take();
  }
  {
    // Cluster weights and the shared filter geometry are committed state,
    // frozen at the original build across incremental updates, so they are
    // stored rather than re-derived from the (possibly grown) corpus.
    ByteWriter w;
    w.PutVarint(package.codebook.size());
    for (size_t c = 0; c < package.codebook.size(); ++c) {
      double weight =
          package.config.freq_grouped
              ? package.fg_index->list(static_cast<bovw::ClusterId>(c)).weight
              : package.inv_index->list(static_cast<bovw::ClusterId>(c)).weight;
      w.PutF64(weight);
    }
    sections[kWeights - 1] = w.Take();
  }
  {
    ByteWriter w;
    PutFilterGeometry(w, package.config.freq_grouped
                             ? package.fg_index->filter_params()
                             : package.inv_index->filter_params());
    sections[kFilterGeo - 1] = w.Take();
  }
  {
    ByteWriter w;
    w.PutVarint(package.mrkd_trees.size());
    for (const auto& tree : package.forest->trees()) PutTree(w, *tree);
    sections[kTrees - 1] = w.Take();
  }
  sections[kPostings - 1] = EncodePostings(package);
  {
    // Image index + blobs, ascending id order. The payloads are copied into
    // the blob section first and digested from there in one batch.
    std::vector<StoredImages::Record> records;
    records.reserve(package.NumImages());
    ByteWriter blobs;
    Status s = package.ForEachImage(
        [&records, &blobs](ImageId id, BytesView data, BytesView sig) {
          StoredImages::Record& r = records.emplace_back();
          r.id = id;
          r.offset = blobs.size();
          r.size = data.size;
          r.signature.assign(sig.data, sig.data + sig.size);
          blobs.PutBytes(data.data, data.size);
          return Status::Ok();
        });
    if (!s.ok()) return s;
    sections[kImageBlobs - 1] = blobs.Take();
    const Bytes& blob_bytes = sections[kImageBlobs - 1];
    std::vector<BytesView> payloads;
    payloads.reserve(records.size());
    for (const auto& r : records) {
      payloads.emplace_back(blob_bytes.data() + r.offset, r.size);
    }
    std::vector<Digest> digests(records.size());
    crypto::HashBatch(payloads.data(), digests.data(), payloads.size());

    ByteWriter index;
    index.PutVarint(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      index.PutU64(records[i].id);
      index.PutVarint(records[i].offset);
      index.PutVarint(records[i].size);
      crypto::PutDigest(index, digests[i]);
      index.PutBlob(records[i].signature);
    }
    sections[kImageIndex - 1] = index.Take();
  }

  // Layout: header, TOC, then each section on a page boundary.
  uint64_t offsets[kNumSections];
  uint64_t off = AlignUp(kHeaderBytes + kNumSections * kTocEntryBytes, page);
  for (size_t i = 0; i < kNumSections; ++i) {
    offsets[i] = off;
    off = AlignUp(off + sections[i].size(), page);
  }
  // The image ends exactly where the last section does — no trailing pad,
  // so every byte past it would be detectable junk.
  const uint64_t file_size =
      offsets[kNumSections - 1] + sections[kNumSections - 1].size();

  ByteWriter toc;
  for (size_t i = 0; i < kNumSections; ++i) {
    toc.PutU32(static_cast<uint32_t>(i + 1));
    toc.PutU64(offsets[i]);
    toc.PutU64(sections[i].size());
    crypto::PutDigest(toc, crypto::Sha3(sections[i]));
  }
  const Bytes toc_bytes = toc.Take();

  ByteWriter header;
  header.PutU32(kStoreMagic);
  header.PutU32(kStoreVersion);
  header.PutU32(package.split_root() ? kFlagSplitRoot : 0);
  header.PutU32(page);
  header.PutU32(kNumSections);
  header.PutU64(kHeaderBytes);
  header.PutU64(toc_bytes.size());
  header.PutU64(file_size);
  crypto::PutDigest(header, package.RootDigest());
  crypto::PutDigest(header, crypto::Sha3(toc_bytes));
  Bytes header_prefix = header.Take();
  const Digest header_digest = crypto::Sha3(header_prefix);

  // Zero-initialized, so every alignment gap is zero padding.
  Bytes file(file_size, 0);
  std::copy(header_prefix.begin(), header_prefix.end(), file.begin());
  std::copy(header_digest.bytes.begin(), header_digest.bytes.end(),
            file.begin() + static_cast<ptrdiff_t>(header_prefix.size()));
  std::copy(toc_bytes.begin(), toc_bytes.end(),
            file.begin() + static_cast<ptrdiff_t>(kHeaderBytes));
  for (size_t i = 0; i < kNumSections; ++i) {
    std::copy(sections[i].begin(), sections[i].end(),
              file.begin() + static_cast<ptrdiff_t>(offsets[i]));
  }
  return file;
}

// Which entry point is decoding. The mapped store restores the indexes from
// their stored chains without rehashing them; the in-memory form (the
// engine's update clone) rebuilds them from the decoded corpus, weights and
// geometry, so postings that no longer derive from the corpus cannot
// survive a clone.
enum class DecodeMode { kMapped, kInMemory };

// The codebook piece of an image from its codebook and trees sections,
// which are already checked against their TOC digests `sections`: `shared`
// when it was decoded from sections with these digests under the same
// forest parameters, reveal mode and layout — every input it derives from
// is then the same — and otherwise a piece decoded from the two sections.
// This is the one place a decoder adopts a piece.
Status DecodeCodebookAds(ByteReader codebook_r, ByteReader trees_r,
                         const core::CodebookAds::SectionDigests& sections,
                         const core::Config& config, bool split_root,
                         const std::shared_ptr<const core::CodebookAds>& shared,
                         std::shared_ptr<const core::CodebookAds>* out) {
  if (shared != nullptr && shared->sections.has_value() &&
      shared->sections->codebook == sections.codebook &&
      shared->sections->trees == sections.trees &&
      shared->forest->params() == config.forest &&
      shared->reveal_mode == config.reveal_mode &&
      shared->split_root == split_root) {
    *out = shared;
    return Status::Ok();
  }
  auto ads = std::make_shared<core::CodebookAds>();
  Status s = GetPointSet(codebook_r, &ads->points);
  if (!s.ok()) return s;
  if (!codebook_r.AtEnd()) return Corrupt("trailing bytes in codebook");

  // The stored tree shapes are adopted, not rebuilt, so node layouts (and
  // therefore digests) match the owner's signature even if the standard
  // library's partition order ever changes.
  uint64_t num_trees = 0;
  if (!(s = trees_r.GetVarint(&num_trees)).ok()) return s;
  if (num_trees != static_cast<uint64_t>(config.forest.num_trees)) {
    return Corrupt("tree count diverges from config");
  }
  std::vector<std::unique_ptr<ann::RkdTree>> trees;
  for (uint64_t i = 0; i < num_trees; ++i) {
    std::unique_ptr<ann::RkdTree> tree;
    s = GetTree(trees_r, ads->points, config.forest.max_leaf_size, &tree);
    if (!s.ok()) return s;
    trees.push_back(std::move(tree));
  }
  if (!trees_r.AtEnd()) return Corrupt("trailing bytes in trees");
  ads->forest = std::make_unique<ann::RkdForest>(ads->points, config.forest,
                                                 std::move(trees));
  ads->Derive(config.reveal_mode, split_root);
  ads->sections = sections;
  *out = std::move(ads);
  return Status::Ok();
}

// Decodes the byte image `file` into `*out` and its payload records into
// `images`, which point into `file`. The codebook piece is `shared` when
// DecodeCodebookAds adopts it. Every byte of the image is checked: header
// and TOC by their digests, alignment gaps for zero padding, every section
// except the blobs by its TOC digest, and the blobs — which the payload
// extents tile exactly — by the per-payload digests on every read. The root
// re-derived from the decoded sections must equal the header's.
Status DecodePackage(BytesView file, DecodeMode mode,
                     const std::shared_ptr<const core::CodebookAds>& shared,
                     std::unique_ptr<core::SpPackage>* out,
                     StoredImages* images) {
  Header header;
  std::vector<TocEntry> toc;
  Status s = ReadHeaderAndToc(file, &header, &toc);
  if (!s.ok()) return s;

  // After this loop, a parse failure genuinely means a format bug or a
  // forged file, never silent bit rot.
  for (const TocEntry& e : toc) {
    if (e.id == kImageBlobs) continue;
    if (crypto::Sha3(file.data + e.offset, e.size) != e.digest) {
      return Corrupt("section " + std::to_string(e.id) + " digest diverges");
    }
  }
  auto section = [&](SectionId id) {
    const TocEntry& e = toc[id - 1];
    return ByteReader(file.data + e.offset, e.size);
  };
  auto section_done = [](ByteReader& r, const char* name) {
    return r.AtEnd() ? Status::Ok()
                     : Corrupt(std::string("trailing bytes in ") + name);
  };

  core::Config config;
  {
    ByteReader r = section(kConfig);
    if (!(s = GetConfig(r, &config)).ok()) return s;
    if (!(s = section_done(r, "config")).ok()) return s;
  }
  std::shared_ptr<const core::CodebookAds> ads;
  s = DecodeCodebookAds(
      section(kCodebook), section(kTrees),
      {toc[kCodebook - 1].digest, toc[kTrees - 1].digest}, config,
      header.split_root, shared, &ads);
  if (!s.ok()) return s;
  *out = std::make_unique<core::SpPackage>(std::move(ads));
  core::SpPackage* pkg = out->get();
  pkg->config = config;
  {
    ByteReader r = section(kCorpus);
    uint64_t n = 0;
    if (!(s = r.GetVarint(&n)).ok()) return s;
    if (n > r.remaining() / 2) return Corrupt("corpus size exceeds input");
    pkg->corpus.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t id = 0;
      if (!(s = r.GetVarint(&id)).ok()) return s;
      pkg->corpus[i].first = id;
      if (!(s = GetBovw(r, &pkg->corpus[i].second)).ok()) return s;
    }
    if (!(s = section_done(r, "corpus")).ok()) return s;
  }
  std::vector<double> raw_weights;
  {
    ByteReader r = section(kWeights);
    uint64_t n = 0;
    if (!(s = r.GetVarint(&n)).ok()) return s;
    if (n != pkg->codebook.size()) return Corrupt("weight count diverges");
    raw_weights.resize(n);
    for (auto& weight : raw_weights) {
      if (!(s = r.GetF64(&weight)).ok()) return s;
    }
    if (!(s = section_done(r, "weights")).ok()) return s;
  }
  cuckoo::CuckooParams geo;
  geo.fingerprint_bits = pkg->config.fingerprint_bits;
  geo.seed = pkg->config.filter_seed;
  {
    ByteReader r = section(kFilterGeo);
    if (!(s = GetFilterGeometry(r, &geo)).ok()) return s;
    if (!(s = section_done(r, "filter geometry")).ok()) return s;
  }

  if (mode == DecodeMode::kInMemory) {
    // The postings section was digest-checked above; the chains are
    // re-derived from the corpus instead of taken from it.
    bovw::ClusterWeights weights =
        bovw::ClusterWeights::FromRaw(std::move(raw_weights));
    if (pkg->config.freq_grouped) {
      pkg->fg_index = std::make_unique<freqgroup::FgInvertedIndex>(
          freqgroup::FgInvertedIndex::Build(
              pkg->codebook.size(), pkg->corpus, weights,
              pkg->config.with_filters, pkg->config.fingerprint_bits,
              pkg->config.filter_seed, geo));
      pkg->list_digests = pkg->fg_index->ListDigests();
    } else {
      pkg->inv_index = std::make_unique<invindex::MerkleInvertedIndex>(
          invindex::MerkleInvertedIndex::Build(
              pkg->codebook.size(), pkg->corpus, weights,
              pkg->config.with_filters, pkg->config.fingerprint_bits,
              pkg->config.filter_seed, geo));
      pkg->list_digests = pkg->inv_index->ListDigests();
    }
  } else {
    // Restored without rehashing the chains (the whole point of the
    // store): theta and list digests are re-derived, node digests below.
    ByteReader r = section(kPostings);
    if (pkg->config.freq_grouped) {
      std::vector<freqgroup::FgList> lists;
      if (!(s = DecodeFgPostings(r, *pkg, raw_weights, geo, &lists)).ok()) {
        return s;
      }
      Result<freqgroup::FgInvertedIndex> idx = freqgroup::FgInvertedIndex::
          Restore(geo, pkg->config.with_filters, std::move(lists));
      if (!idx.ok()) return idx.status();
      pkg->fg_index = std::make_unique<freqgroup::FgInvertedIndex>(
          std::move(*idx));
      pkg->list_digests = pkg->fg_index->ListDigests();
    } else {
      std::vector<invindex::MerkleInvertedList> lists;
      if (!(s = DecodePlainPostings(r, *pkg, raw_weights, geo, &lists)).ok()) {
        return s;
      }
      Result<invindex::MerkleInvertedIndex> idx = invindex::
          MerkleInvertedIndex::Restore(geo, pkg->config.with_filters,
                                       std::move(lists));
      if (!idx.ok()) return idx.status();
      pkg->inv_index = std::make_unique<invindex::MerkleInvertedIndex>(
          std::move(*idx));
      pkg->list_digests = pkg->inv_index->ListDigests();
    }
    if (!(s = section_done(r, "postings")).ok()) return s;
  }
  pkg->BuildAds();
  {
    const TocEntry& blobs = toc[kImageBlobs - 1];
    ByteReader r = section(kImageIndex);
    if (!(s = DecodeImageIndex(r, blobs.size, &images->records_)).ok()) {
      return s;
    }
    if (!(s = section_done(r, "image index")).ok()) return s;
    images->blobs_ = file.data + blobs.offset;
  }

  // Bind content to the header. The re-derived root is a function of the
  // codebook, tree shapes, weights, filter states, and first-posting digests
  // just decoded from the image, so this check is over the bytes as read —
  // not over any cached in-memory state.
  if (pkg->RootDigest() != header.root_digest) {
    return Corrupt("package root diverges from header");
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Write / Open
// ---------------------------------------------------------------------------

Status PackageStore::Write(const std::string& path,
                           const core::SpPackage& package,
                           const WriteOptions& options) {
  const uint32_t page = options.page_size;
  if (page < kMinPageSize || page > kMaxPageSize ||
      (page & (page - 1)) != 0) {
    return Status::Error("store: page_size must be a power of two in [64, 1M]");
  }
  Result<Bytes> file = EncodePackage(package, page);
  if (!file.ok()) return file.status();
  return AtomicWriteFile(path, *file);
}

Result<std::unique_ptr<core::SpPackage>> PackageStore::Open(
    const std::string& path, const OpenOptions& opts) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();

  std::unique_ptr<core::SpPackage> pkg;
  auto mapped = std::make_shared<StoredImages>();
  Status s = DecodePackage(BytesView(map->data(), map->size()),
                           DecodeMode::kMapped, opts.codebook_ads, &pkg,
                           mapped.get());
  if (!s.ok()) return s;
  // Payload pages are random-access (whatever ids land in top-k);
  // readahead would just drag cold neighbours into the page cache.
  const uint64_t blobs_offset =
      static_cast<uint64_t>(mapped->blobs_ - map->data());
  map->AdviseRandom(blobs_offset, map->size() - blobs_offset);
  // The source owns the mapping from here on (moving it keeps the address
  // the records point into).
  mapped->map_ = std::move(*map);

  if (opts.params != nullptr) {
    if (!(pkg->config == opts.params->config)) {
      return Corrupt("config diverges from public parameters");
    }
    if (!crypto::RsaVerify(opts.params->public_key, pkg->RootDigest(),
                           opts.params->root_signature)) {
      return Corrupt("root signature failed verification over mapped package");
    }
  }
  if (opts.deep_verify) {
    s = pkg->config.freq_grouped ? pkg->fg_index->VerifyChains()
                                 : pkg->inv_index->VerifyChains();
    if (!s.ok()) return s;
    // Faults in every payload page and checks each stored digest.
    s = mapped->ForEach([](ImageId, BytesView, BytesView) {
      return Status::Ok();
    });
    if (!s.ok()) return s;
  }

  pkg->image_source = mapped.get();
  pkg->backing = std::move(mapped);
  return pkg;
}

Bytes SerializeSpPackage(const core::SpPackage& package) {
  Result<Bytes> image = EncodePackage(package, WriteOptions{}.page_size);
  // A payload that fails its integrity check yields no bytes at all, which
  // no decoder accepts.
  Bytes out = image.ok() ? std::move(*image) : Bytes{};
  // Robustness-test hook: when the fault injector arms the
  // storage.serialize.* sites, the emitted bytes are bit-flipped or
  // truncated here — the decoder must turn any such corruption into
  // kCorrupted, never a crash or a silently wrong package. No-op (one
  // relaxed load) when nothing is armed. Write does not pass through here,
  // so the epoch crash matrix stays unperturbed.
  fault::InjectByteFaults(&out);
  return out;
}

Result<std::unique_ptr<core::SpPackage>> DeserializeSpPackage(
    const Bytes& data) {
  return DeserializeSpPackage(data, nullptr);
}

Result<std::unique_ptr<core::SpPackage>> DeserializeSpPackage(
    const Bytes& data,
    const std::shared_ptr<const core::CodebookAds>& codebook_ads) {
  std::unique_ptr<core::SpPackage> pkg;
  StoredImages images;
  Status s =
      DecodePackage(data, DecodeMode::kInMemory, codebook_ads, &pkg, &images);
  if (!s.ok()) return s;
  core::SpPackage* out = pkg.get();
  s = images.ForEach([out](ImageId id, BytesView payload, BytesView sig) {
    const uint8_t* p = payload.data;
    out->image_data.emplace(id, Bytes(p, p + payload.size));
    if (sig.size > 0) {
      out->image_signatures.emplace(id, Bytes(sig.data, sig.data + sig.size));
    }
    return Status::Ok();
  });
  if (!s.ok()) return s;
  return pkg;
}

Result<PackageLayout> PackageStore::Inspect(const std::string& path) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  Header header;
  std::vector<TocEntry> toc;
  Status s =
      ReadHeaderAndToc(BytesView(map->data(), map->size()), &header, &toc);
  if (!s.ok()) return s;
  PackageLayout layout;
  layout.page_size = header.page_size;
  layout.file_size = header.file_size;
  layout.header_bytes = kHeaderBytes;
  layout.toc_offset = header.toc_offset;
  layout.toc_size = header.toc_size;
  for (const TocEntry& e : toc) {
    layout.sections.push_back(SectionExtent{e.id, e.offset, e.size});
  }
  return layout;
}

Status PackageStore::Scrub(const std::string& path,
                           const ScrubOptions& options, ScrubReport* report) {
  ScrubReport local;
  ScrubReport* rep = report != nullptr ? report : &local;
  *rep = ScrubReport{};
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  Header header;
  std::vector<TocEntry> toc;
  // Re-checks the header and TOC digests against the mapped bytes, which
  // also re-validates every section extent before we trust it below.
  Status s =
      ReadHeaderAndToc(BytesView(map->data(), map->size()), &header, &toc);
  if (!s.ok()) return s;
  rep->bytes_hashed += kHeaderBytes + header.toc_size;

  const size_t chunk = std::max<size_t>(4096, options.chunk_bytes);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  uint64_t paced_bytes = 0;
  for (const TocEntry& e : toc) {
    crypto::Sha3_256 hasher;
    uint64_t done = 0;
    while (done < e.size) {
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_acquire)) {
        return Status::Unavailable("scrub: cancelled");
      }
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(chunk, e.size - done));
      hasher.Update(map->data() + e.offset + done, n);
      done += n;
      paced_bytes += n;
      if (options.bytes_per_sec > 0) {
        // Sleep off any lead over the pace line so a full-file scrub
        // averages at most bytes_per_sec of read+hash bandwidth.
        const auto budget = std::chrono::duration<double>(
            static_cast<double>(paced_bytes) /
            static_cast<double>(options.bytes_per_sec));
        const auto ahead =
            start + std::chrono::duration_cast<Clock::duration>(budget) -
            Clock::now();
        if (ahead > Clock::duration::zero()) {
          std::this_thread::sleep_for(ahead);
        }
      }
    }
    Digest got = hasher.Finalize();
    rep->bytes_hashed += e.size;
    if (fault::InjectFault("storage.scrub.bitflip")) {
      const uint64_t r =
          fault::FaultInjector::Global().Draw("storage.scrub.bitflip");
      got.bytes[(r >> 3) % got.bytes.size()] ^=
          static_cast<uint8_t>(1u << (r & 7));
    }
    if (got != e.digest) {
      return Status::Corrupted("scrub: section " + std::to_string(e.id) +
                               " digest diverges in " + path);
    }
    ++rep->sections_checked;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Epoch directory protocol
// ---------------------------------------------------------------------------

std::string PackageStore::EpochFileName(uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "pkg-%020llu.ipk",
                static_cast<unsigned long long>(epoch));
  return buf;
}

Result<std::string> PackageStore::WriteEpoch(const std::string& dir,
                                             uint64_t epoch,
                                             const core::SpPackage& package,
                                             const WriteOptions& options) {
  std::string path = dir + "/" + EpochFileName(epoch);
  Status s = Write(path, package, options);
  if (!s.ok()) return s;
  return path;
}

Status PackageStore::SetCurrentEpoch(const std::string& dir, uint64_t epoch) {
  std::string line = "IPKC " + std::to_string(epoch) + "\n";
  return AtomicWriteFile(dir + "/CURRENT",
                         Bytes(line.begin(), line.end()));
}

Result<uint64_t> PackageStore::CurrentEpoch(const std::string& dir) {
  Bytes data;
  Status s = ReadFileBytes(dir + "/CURRENT", &data);
  if (!s.ok()) return s;
  std::string text(data.begin(), data.end());
  // Strict shape: "IPKC <decimal>\n", nothing else. CURRENT is written
  // atomically, so anything malformed is tampering or a foreign file.
  if (text.size() < 7 || text.compare(0, 5, "IPKC ") != 0 ||
      text.back() != '\n') {
    return Status(Corrupt("malformed CURRENT file"));
  }
  uint64_t epoch = 0;
  size_t i = 5;
  const size_t end = text.size() - 1;
  if (end - i == 0 || end - i > 20) {
    return Status(Corrupt("malformed CURRENT epoch"));
  }
  for (; i < end; ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return Status(Corrupt("malformed CURRENT epoch"));
    }
    uint64_t next = epoch * 10 + static_cast<uint64_t>(text[i] - '0');
    if (next < epoch) return Status(Corrupt("CURRENT epoch overflows"));
    epoch = next;
  }
  return epoch;
}

Result<std::unique_ptr<core::SpPackage>> PackageStore::OpenCurrent(
    const std::string& dir, const OpenOptions& opts, uint64_t* epoch_out) {
  Result<uint64_t> epoch = CurrentEpoch(dir);
  if (!epoch.ok()) return epoch.status();
  if (epoch_out != nullptr) *epoch_out = *epoch;
  return Open(dir + "/" + EpochFileName(*epoch), opts);
}

}  // namespace imageproof::storage
