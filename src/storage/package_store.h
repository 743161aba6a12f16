// Disk-backed mmap package store with crash-safe epoch updates.
//
// The .ipk image below is the one package format. The store is its serving
// form: a page-aligned sectioned file that is mmap'd read-only (MAP_SHARED),
// opened by checking digests instead of recomputing them, and whose image
// payloads are never loaded at all — they fault in lazily from evictable
// page cache when a query's top-k result needs them, which keeps the
// resident set of a deployment below its corpus size. Its in-memory form,
// storage/serializer.h, encodes and decodes the same bytes through the same
// section codec (used by the engine's update clone).
//
// File layout (all integers canonical little-endian, common/bytes.h):
//
//   page 0        header  magic 'IPK1' | version | flags | page_size |
//                         section_count | toc_offset | toc_size |
//                         file_size | root_digest | toc_digest |
//                         header_digest; flags bit 0 marks the
//                         split-root layout of a shard (core/owner.h)
//   page 1..     TOC      per section: id(u32) | offset(u64) | size(u64) |
//                         digest(32) — offsets page-aligned, ranges
//                         non-overlapping and inside the file
//   then         sections each starting on a page boundary, zero-padded
//                         between (the padding is checked to be zero);
//                         order fixed by section id; the image-index
//                         extents tile the blob section exactly
//
// Sections: kConfig, kCodebook, kCorpus, kWeights, kFilterGeo, kTrees,
// kPostings (per-list postings WITH their stored chain digests + the
// serialized cuckoo filters), kImageIndex (sorted id -> blob extent +
// per-payload digest + signature), kImageBlobs (raw payloads, lazily
// faulted).
//
// Integrity model (the PR-4 hardening discipline, extended to mmap):
//   * header_digest and toc_digest pin the metadata; every section except
//     kImageBlobs is digest-checked against the TOC on open. Any flipped
//     bit in checked bytes => kCorrupted at open.
//   * kImageBlobs would fault every page if hashed on open, defeating lazy
//     loading. Instead each payload's digest lives in the (checked)
//     kImageIndex and is verified on access: a tampered payload surfaces
//     as kCorrupted from the query that touches it, never as silently
//     wrong VO bytes.
//   * Authenticity is separate from integrity: Open re-derives h(Theta)
//     from the stored filter bytes, h_Gamma per list, and every MRKD node
//     digest — except those of an adopted codebook piece, which were
//     derived from byte-identical codebook and trees sections — then
//     (given PublicParams) RsaVerify's the root over the mapped bytes — so
//     a wholesale file swap by someone without the owner's key fails open
//     even with self-consistent digests. Stored
//     posting-chain digests are bound through h_pos1 and re-derived by
//     clients per query; deep_verify re-walks them eagerly.
//   * Every decoder caps allocations against bytes actually present,
//     decodes bools strictly, and reports all failures as kCorrupted.
//
// Crash-safe updates: a package file is only ever produced by
// AtomicWriteFile (temp + fsync + rename + dir fsync), and an epoch
// directory holds pkg-<epoch>.ipk files named by a CURRENT pointer file
// that is itself flipped atomically — the clone/verify/swap protocol of
// core/query_engine.h extended to disk. A crash at any step leaves CURRENT
// naming a complete, verifiable epoch (old or new), never a torn one.

#ifndef IMAGEPROOF_STORAGE_PACKAGE_STORE_H_
#define IMAGEPROOF_STORAGE_PACKAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/owner.h"
#include "core/vo.h"

namespace imageproof::storage {

struct WriteOptions {
  // Section alignment; power of two in [64, 1 << 20]. 4096 matches the
  // kernel page size for serving; tests shrink it so exhaustive bit-flip
  // scans stay fast.
  uint32_t page_size = 4096;
};

struct OpenOptions {
  // When set, the restored root digest is RsaVerify'd against
  // params->root_signature and the stored config must equal params->config.
  // Serving paths always set this; nullptr is for tooling that inspects
  // unsigned state.
  const core::PublicParams* params = nullptr;
  // Re-walk every posting/group chain and every image payload digest
  // eagerly (faults the whole file in). For audits and tests, not serving.
  bool deep_verify = false;
  // The codebook piece of another package of the deployment (a sibling
  // shard, the snapshot an update replaces). Adopted instead of decoded
  // when the file's codebook and trees sections carry the digests it was
  // decoded from (storage/serializer.h); the root and signature checks run
  // either way.
  std::shared_ptr<const core::CodebookAds> codebook_ads;
};

// Layout facts for tooling and the bit-flip scan: which byte ranges of the
// file are covered by open-time digests.
struct SectionExtent {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
};

struct PackageLayout {
  uint32_t page_size = 0;
  uint64_t file_size = 0;
  uint64_t header_bytes = 0;  // digest-pinned header prefix + trailing digests
  uint64_t toc_offset = 0;
  uint64_t toc_size = 0;
  std::vector<SectionExtent> sections;
};

// Knobs for the background scrub (see Scrub below). The scrubber shares
// the machine with serving traffic, so it is paced, chunked, and
// cancellable between chunks.
struct ScrubOptions {
  size_t chunk_bytes = 1 << 20;  // hash granularity between pacing sleeps
  size_t bytes_per_sec = 0;      // 0 = unthrottled
  const std::atomic<bool>* cancel = nullptr;  // checked between chunks
};

struct ScrubReport {
  uint64_t bytes_hashed = 0;
  uint64_t sections_checked = 0;
};

class PackageStore {
 public:
  // Serializes `package` into the sectioned format and durably replaces
  // `path` (write-new-file + fsync + atomic-rename). Works for in-memory
  // and disk-backed packages alike (payloads stream through the uniform
  // accessor, integrity-checked as they are read).
  static Status Write(const std::string& path, const core::SpPackage& package,
                      const WriteOptions& options = {});

  // Maps `path` and reconstructs a disk-backed SpPackage: sections are
  // digest-checked, indexes restored without rehashing their chains, the
  // stored forest trees adopted (or, with opts.codebook_ads, the whole
  // codebook piece), MRKD digests rebuilt, the root bound to the header
  // and (with opts.params) to the owner's signature. The returned
  // package serves image payloads zero-copy from the mapping; its
  // `backing` member pins the map.
  static Result<std::unique_ptr<core::SpPackage>> Open(
      const std::string& path, const OpenOptions& opts = {});

  // Parses header + TOC only (still digest-checked). No sections are
  // decoded and nothing is verified against a signature.
  static Result<PackageLayout> Inspect(const std::string& path);

  // Re-walks the full digest chain of `path` against the bytes on disk:
  // header digest, TOC digest, then every section digest — *including*
  // kImageBlobs, which Open() deliberately skips (hashing it would fault
  // the whole file in; its TOC digest exists precisely so a scrubber can
  // check payload bytes that no query has touched lately). kCorrupted
  // names the first diverging region; kUnavailable means a cancel was
  // requested. Nothing is decoded and no signature is checked — this is
  // bit-rot detection, paired with the open-time authenticity chain.
  //
  // Fault site `storage.scrub.bitflip` corrupts one computed section
  // digest, simulating detected rot without touching the (shared,
  // possibly serving) file.
  static Status Scrub(const std::string& path, const ScrubOptions& options = {},
                      ScrubReport* report = nullptr);

  // --- epoch directory protocol ---------------------------------------

  static std::string EpochFileName(uint64_t epoch);

  // Writes dir/pkg-<epoch>.ipk crash-safely and returns its path. Does NOT
  // flip CURRENT: the caller is expected to Open() and verify the file
  // first (clone/verify/swap, on disk).
  static Result<std::string> WriteEpoch(const std::string& dir, uint64_t epoch,
                                        const core::SpPackage& package,
                                        const WriteOptions& options = {});

  // Atomically repoints dir/CURRENT at epoch. After this returns, a
  // reopening process serves the new epoch; before it, the old one.
  static Status SetCurrentEpoch(const std::string& dir, uint64_t epoch);

  // Reads dir/CURRENT. kError when absent (fresh directory).
  static Result<uint64_t> CurrentEpoch(const std::string& dir);

  // Opens the package CURRENT names. `epoch_out` (optional) receives the
  // epoch number.
  static Result<std::unique_ptr<core::SpPackage>> OpenCurrent(
      const std::string& dir, const OpenOptions& opts = {},
      uint64_t* epoch_out = nullptr);
};

}  // namespace imageproof::storage

#endif  // IMAGEPROOF_STORAGE_PACKAGE_STORE_H_
